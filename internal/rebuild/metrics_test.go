package rebuild

import (
	"testing"

	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/sim"
)

func TestPerDiskStatsAndBalance(t *testing.T) {
	code := codes.MustNew("tip", 7)
	errors := genErrors(t, code, 20, 100, 32)
	res, err := Run(Config{
		Code: code, Policy: "lru", Strategy: core.StrategyLooped,
		Workers: 4, CacheChunks: 0, Stripes: 100,
	}, errors)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerDisk) != code.Disks() {
		t.Fatalf("PerDisk has %d entries", len(res.PerDisk))
	}
	var totalReads uint64
	for _, d := range res.PerDisk {
		totalReads += d.Reads
	}
	if totalReads != res.DiskReads {
		t.Errorf("per-disk reads %d != total %d", totalReads, res.DiskReads)
	}
}

func TestResultZeroValueAccessors(t *testing.T) {
	var r Result
	if r.AvgResponse() != 0 || r.AvgSchemeGen() != 0 || r.AppHitRatio() != 0 || r.AppAvgResponse() != 0 {
		t.Error("zero-value accessors should all be 0")
	}
}

func TestDefaultsFillPaperValues(t *testing.T) {
	var c Config
	c.Defaults()
	if c.Workers != 128 || c.ChunkSize != 32*1024 || c.CacheAccess != sim.Millisecond/2 || c.Stripes != 1<<16 || c.XORPerChunk == 0 {
		t.Errorf("Defaults = %+v", c)
	}
	// Preset values are preserved.
	c2 := Config{Workers: 3, ChunkSize: 1024, CacheAccess: sim.Millisecond, XORPerChunk: 1, Stripes: 7}
	c2.Defaults()
	if c2.Workers != 3 || c2.ChunkSize != 1024 || c2.CacheAccess != sim.Millisecond || c2.Stripes != 7 {
		t.Errorf("Defaults overwrote presets: %+v", c2)
	}
}
