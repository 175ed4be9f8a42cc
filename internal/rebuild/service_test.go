package rebuild

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"fbf/internal/chunk"
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/grid"
	"fbf/internal/store"
	"fbf/internal/trace"
)

func testManifest(codeName string, p, stripes, chunkSize int) store.ArrayManifest {
	code := codes.MustNew(codeName, p)
	return store.ArrayManifest{
		Code: codeName, P: p,
		Disks: code.Disks(), Rows: code.Rows(),
		Stripes: stripes, ChunkSize: chunkSize,
	}
}

// initMem materializes a clean array into a fresh memstore.
func initMem(t testing.TB, m store.ArrayManifest, seed int64) *store.Mem {
	t.Helper()
	b := store.NewMem()
	if err := InitStore(b, m, seed); err != nil {
		t.Fatalf("InitStore: %v", err)
	}
	return b
}

// killDisk deletes every chunk of one disk — the memstore analogue of
// rm -rf on a disk directory.
func killDisk(t *testing.T, b store.Backend, disk int) {
	t.Helper()
	addrs, err := b.List(disk)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if err := b.Delete(a); err != nil {
			t.Fatal(err)
		}
	}
}

// loseCells deletes the given cells of one stripe.
func loseCells(t testing.TB, b store.Backend, stripe int, cells []grid.Coord) {
	t.Helper()
	for _, c := range cells {
		if err := b.Delete(AddrOf(stripe, c)); err != nil {
			t.Fatal(err)
		}
	}
}

// losePartialStripes puts one partial stripe error — the paper's damage:
// size consecutive chunks of one disk — into every stripe, on a disk
// and at a starting row that move with the stripe. Every such plan is
// made of single parity chains, checked by check chains whose other
// members the zero test reads.
func losePartialStripes(t *testing.T, b store.Backend, m store.ArrayManifest, size int) (lost int) {
	t.Helper()
	for s := 0; s < m.Stripes; s++ {
		e := core.PartialStripeError{Stripe: s, Disk: (2*s + 1) % m.Disks, Row: s % (m.Rows - size + 1), Size: size}
		loseCells(t, b, s, e.LostCells())
		lost += size
	}
	return lost
}

// readCounter counts payload reads per address (the damage scan stats,
// it does not read) and remembers whether any read followed a write in
// the same stripe.
type readCounter struct {
	store.Backend
	reads          map[store.Addr]int
	written        map[int]bool // stripes with a chunk written back
	readAfterWrite bool
}

func newReadCounter(b store.Backend) *readCounter {
	return &readCounter{Backend: b, reads: map[store.Addr]int{}, written: map[int]bool{}}
}

func (r *readCounter) ReadChunk(a store.Addr, dst []byte) (int, error) {
	r.reads[a]++
	r.readAfterWrite = r.readAfterWrite || r.written[a.Stripe]
	return r.Backend.ReadChunk(a, dst)
}

func (r *readCounter) WriteChunk(a store.Addr, data []byte) error {
	r.written[a.Stripe] = true
	return r.Backend.WriteChunk(a, data)
}

func (r *readCounter) total() (n int) {
	for _, c := range r.reads {
		n += c
	}
	return n
}

// checkAgainstGroundTruth recomputes every stripe from the init seed
// and byte-compares the whole store against it, but for the chunks a
// run accounted as lost.
func checkAgainstGroundTruth(t *testing.T, b store.Backend, m store.ArrayManifest, seed int64, lost ...store.Addr) {
	t.Helper()
	if a := firstWrongChunk(t, b, m, seed, lost...); a != nil {
		t.Fatalf("chunk %v does not match ground truth after rebuild", *a)
	}
}

// firstWrongChunk is checkAgainstGroundTruth's comparison: the first
// chunk of the store, lost ones aside, that differs from the stripe
// recomputed from the init seed, or nil.
func firstWrongChunk(t *testing.T, b store.Backend, m store.ArrayManifest, seed int64, lost ...store.Addr) *store.Addr {
	t.Helper()
	skip := make(map[store.Addr]bool, len(lost))
	for _, a := range lost {
		skip[a] = true
	}
	code := codes.MustNew(m.Code, m.P)
	want := make([]chunk.Chunk, code.Layout().Cells())
	for i := range want {
		want[i] = chunk.New(m.ChunkSize)
	}
	got := chunk.New(m.ChunkSize)
	for s := 0; s < m.Stripes; s++ {
		code.MaterializeStripeInto(want, StripeSeed(seed, s))
		for idx := range want {
			cell := code.CoordOf(idx)
			a := AddrOf(s, cell)
			if skip[a] {
				continue
			}
			n, err := b.ReadChunk(a, got)
			if err != nil {
				t.Fatalf("read %v after rebuild: %v", a, err)
			}
			if n != m.ChunkSize || !got.Equal(want[idx]) {
				return &a
			}
		}
	}
	return nil
}

// TestServiceRebuildsKilledDisks is the storage-engine tentpole check:
// kill up to three whole disks of a materialized array and the service
// must restore every chunk byte-identically, oracle-verifying each.
// Two or more dead disks leave cells no single chain rebuilds, so those
// stripes go through the read-once decode: it reads exactly the chunks
// a dry run of the same damage plans to read, each once, before it
// writes anything, and for the zero test whatever else survives — every
// surviving chunk of the stripe exactly once in all, none of them for
// the check alone once three disks are dead. One dead disk takes single
// chains and their check chains, whose other members the check reads.
func TestServiceRebuildsKilledDisks(t *testing.T) {
	for _, tc := range []struct {
		code    string
		p       int
		disks   []int
		decoded int // cells per stripe rebuilt through the decoder
	}{
		{"star", 5, []int{1}, 0},
		{"star", 5, []int{0, 2, 4}, 12},
		{"tip", 5, []int{1, 3, 4}, 12},
		{"triplestar", 5, []int{0, 1}, 6}, // a mixed plan: two cells keep a single chain
	} {
		t.Run(fmt.Sprintf("%s-p%d-kill%v", tc.code, tc.p, tc.disks), func(t *testing.T) {
			code := codes.MustNew(tc.code, tc.p)
			if !code.CanRecoverColumns(tc.disks...) {
				t.Fatalf("%v cannot recover columns %v; bad test setup", code, tc.disks)
			}
			const seed = 42
			m := testManifest(tc.code, tc.p, 4, 96)
			b := initMem(t, m, seed)
			for _, d := range tc.disks {
				killDisk(t, b, d)
			}
			dry, err := RunService(ServiceConfig{Backend: b, Manifest: m, Strategy: core.StrategyLooped, DryRun: true})
			if err != nil {
				t.Fatalf("dry run: %v", err)
			}

			var last Progress
			counter := newReadCounter(b)
			res, err := RunService(ServiceConfig{
				Backend: counter, Manifest: m,
				Strategy: core.StrategyLooped,
				Progress: func(p Progress) { last = p },
			})
			if err != nil {
				t.Fatalf("RunService: %v", err)
			}
			if res.DataLoss || len(res.Lost) != 0 {
				t.Fatalf("unexpected data loss: %v", res.Lost)
			}
			wantChunks := len(tc.disks) * m.Rows * m.Stripes
			if res.ChunksRebuilt != wantChunks {
				t.Errorf("ChunksRebuilt = %d, want %d", res.ChunksRebuilt, wantChunks)
			}
			if res.ChunksVerified != wantChunks {
				t.Errorf("ChunksVerified = %d, want %d", res.ChunksVerified, wantChunks)
			}
			if res.ChunksDecoded != tc.decoded*m.Stripes {
				t.Errorf("ChunksDecoded = %d, want %d", res.ChunksDecoded, tc.decoded*m.Stripes)
			}
			if res.Report.MissingChunks != wantChunks {
				t.Errorf("scan found %d missing chunks, want %d", res.Report.MissingChunks, wantChunks)
			}
			if len(res.Report.FailedDisks) != len(tc.disks) {
				t.Errorf("FailedDisks = %v, want %v", res.Report.FailedDisks, tc.disks)
			}
			if res.StripesRepaired != m.Stripes {
				t.Errorf("StripesRepaired = %d, want %d", res.StripesRepaired, m.Stripes)
			}
			if last.StripesDone != m.Stripes || last.Percent() != 100 {
				t.Errorf("final progress %+v, want %d stripes at 100%%", last, m.Stripes)
			}
			if got := uint64(counter.total()); res.DiskReads+res.VerifyReads != got {
				t.Errorf("reads not accounted: disk=%d verify=%d, backend served %d", res.DiskReads, res.VerifyReads, got)
			}
			if tc.decoded == 0 {
				if res.DiskReads == 0 || res.VerifyReads == 0 {
					t.Errorf("chain-by-chain reads not accounted: disk=%d verify=%d", res.DiskReads, res.VerifyReads)
				}
			} else {
				survivors := uint64((m.Disks - len(tc.disks)) * m.Rows * m.Stripes)
				if res.DiskReads != uint64(dry.PlannedReads) || res.DiskReads+res.VerifyReads != survivors || (len(tc.disks) == 3 && res.VerifyReads != 0) {
					t.Errorf("read-once decode: disk=%d verify=%d, want the dry run's %d planned reads and every one of the %d survivors once",
						res.DiskReads, res.VerifyReads, dry.PlannedReads, survivors)
				}
				if res.CacheHits != 0 || res.CacheMisses != res.DiskReads {
					t.Errorf("read-once decode: %d hits, %d misses for %d disk reads; want 0 and equal", res.CacheHits, res.CacheMisses, res.DiskReads)
				}
				for a, n := range counter.reads {
					if n != 1 {
						t.Errorf("chunk %v read %d times", a, n)
					}
				}
				if counter.readAfterWrite {
					t.Error("a stripe was read again after its first write-back")
				}
			}
			checkAgainstGroundTruth(t, b, m, seed)
		})
	}
}

// TestServiceStrategiesAndPolicies sweeps strategy x policy over the
// same damage and expects identical recovered bytes from all of them —
// chain choice must never change results, only cost. The policy changes
// nothing at all: the engine keeps no byte cache, so ServiceConfig.Policy
// and CacheChunks are ignored and each strategy's counts are the same
// under every policy, on partial stripe errors (single-chain plans) and,
// in the last row, on dead disks (the decoder).
func TestServiceStrategiesAndPolicies(t *testing.T) {
	const seed = 7
	m := testManifest("star", 5, 3, 64)
	for _, strategy := range []core.Strategy{core.StrategyTypical, core.StrategyLooped, core.StrategyGreedy} {
		var first *ServiceResult
		for _, policy := range []string{"fbf", "lru", "fifo"} {
			t.Run(fmt.Sprintf("%s-%s", strategy, policy), func(t *testing.T) {
				b := initMem(t, m, seed)
				lost := losePartialStripes(t, b, m, 3)
				res, err := RunService(ServiceConfig{
					Backend: b, Manifest: m,
					Policy: policy, Strategy: strategy, CacheChunks: 8,
				})
				if err != nil {
					t.Fatalf("RunService: %v", err)
				}
				if res.DataLoss {
					t.Fatalf("data loss: %v", res.Lost)
				}
				if res.ChunksRebuilt != lost || res.ChunksDecoded != 0 {
					t.Fatalf("rebuilt %d chunks (%d decoded), want %d through single chains", res.ChunksRebuilt, res.ChunksDecoded, lost)
				}
				if res.CacheHits != 0 || res.CacheMisses != res.DiskReads || res.VerifyReads == 0 {
					t.Errorf("hits=%d misses=%d disk=%d verify=%d: want no hit, misses == disk reads and check reads", res.CacheHits, res.CacheMisses, res.DiskReads, res.VerifyReads)
				}
				checkAgainstGroundTruth(t, b, m, seed)
				res.Report = nil
				if first == nil {
					first = res
				} else if !reflect.DeepEqual(first, res) {
					t.Fatalf("policy %s changed a rebuild:\n %+v\n %+v", policy, first, res)
				}
			})
		}
	}
	t.Run("dead-disks-bypass-the-policy", func(t *testing.T) {
		var first *ServiceResult
		for _, policy := range []string{"fbf", "lru", "fifo"} {
			b := initMem(t, m, seed)
			killDisk(t, b, 2)
			killDisk(t, b, 3)
			res, err := RunService(ServiceConfig{Backend: b, Manifest: m, Policy: policy, CacheChunks: 8})
			if err != nil {
				t.Fatalf("RunService: %v", err)
			}
			if res.ChunksDecoded == 0 || res.CacheHits != 0 || res.CacheMisses != res.DiskReads {
				t.Fatalf("%s: decoded=%d hits=%d misses=%d disk=%d", policy, res.ChunksDecoded, res.CacheHits, res.CacheMisses, res.DiskReads)
			}
			checkAgainstGroundTruth(t, b, m, seed)
			res.Report = nil
			if first == nil {
				first = res
			} else if !reflect.DeepEqual(first, res) {
				t.Fatalf("policy %s changed a decoder-path rebuild:\n %+v\n %+v", policy, first, res)
			}
		}
	})
}

// recordingBackend counts mutations, so read-only modes can prove they
// never write.
type recordingBackend struct {
	store.Backend
	writes, deletes int
}

func (r *recordingBackend) WriteChunk(a store.Addr, data []byte) error {
	r.writes++
	return r.Backend.WriteChunk(a, data)
}

func (r *recordingBackend) Delete(a store.Addr) error {
	r.deletes++
	return r.Backend.Delete(a)
}

// TestServiceCheckOnlyAndDryRun pins the read-only contract: check-only
// stops after the scan, dry-run additionally plans, and neither may
// touch the backend.
func TestServiceCheckOnlyAndDryRun(t *testing.T) {
	const seed = 9
	m := testManifest("star", 5, 3, 64)
	base := initMem(t, m, seed)
	killDisk(t, base, 1)
	missing := m.Rows * m.Stripes

	t.Run("check-only", func(t *testing.T) {
		rec := &recordingBackend{Backend: base}
		res, err := RunService(ServiceConfig{Backend: rec, Manifest: m, CheckOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if rec.writes != 0 || rec.deletes != 0 {
			t.Fatalf("check-only mutated the store: %d writes, %d deletes", rec.writes, rec.deletes)
		}
		if res.Report.MissingChunks != missing || res.ChunksRebuilt != 0 || res.PlannedChunks != 0 {
			t.Fatalf("check-only result: %+v", res)
		}
	})
	t.Run("dry-run", func(t *testing.T) {
		rec := &recordingBackend{Backend: base}
		res, err := RunService(ServiceConfig{Backend: rec, Manifest: m, DryRun: true})
		if err != nil {
			t.Fatal(err)
		}
		if rec.writes != 0 || rec.deletes != 0 {
			t.Fatalf("dry-run mutated the store: %d writes, %d deletes", rec.writes, rec.deletes)
		}
		if res.PlannedChunks != missing {
			t.Fatalf("PlannedChunks = %d, want %d", res.PlannedChunks, missing)
		}
		if res.PlannedReads == 0 || res.ChunksRebuilt != 0 || res.DiskReads != 0 {
			t.Fatalf("dry-run executed work: %+v", res)
		}
	})
}

// TestServiceEscalation corrupts a surviving chunk the scheme will
// fetch, with scrub off so the cheap header scan misses payload rot.
// The mid-chain read failure must escalate the cell, regenerate the
// scheme, and still finish a byte-perfect rebuild — the simulator's
// URE ladder running on real bytes.
func TestServiceEscalation(t *testing.T) {
	const seed = 5
	m := testManifest("star", 5, 2, 64)
	dir := t.TempDir()
	b, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := InitStore(b, m, seed); err != nil {
		t.Fatal(err)
	}
	code := codes.MustNew("star", 5)

	// Lose three cells of disk 0 in stripe 0, and predict which chunk
	// the scheme fetches first so we can rot exactly that one.
	e := core.PartialStripeError{Stripe: 0, Disk: 0, Row: 0, Size: 3}
	lost := e.LostCells()
	scheme, _, err := core.RegenerateScheme(code, e, lost, nil, core.StrategyLooped)
	if err != nil {
		t.Fatal(err)
	}
	victim := scheme.Selected[0].Fetch[0]
	for _, c := range lost {
		if err := b.Delete(AddrOf(0, c)); err != nil {
			t.Fatal(err)
		}
	}
	rotPayloadByte(t, dir, AddrOf(0, victim))

	res, err := RunService(ServiceConfig{
		Backend: b, Manifest: m, Strategy: core.StrategyLooped,
	})
	if err != nil {
		t.Fatalf("RunService: %v", err)
	}
	if res.Escalations == 0 || res.Regenerations == 0 {
		t.Fatalf("escalation ladder not exercised: %+v", res)
	}
	if res.DataLoss {
		t.Fatalf("data loss after escalation: %v", res.Lost)
	}
	// The rotted survivor must have been rebuilt too.
	if res.ChunksRebuilt != len(lost)+1 {
		t.Errorf("ChunksRebuilt = %d, want %d", res.ChunksRebuilt, len(lost)+1)
	}
	checkAgainstGroundTruth(t, b, m, seed)
}

// TestDecodePassShape checks the read-once pass against the plan and the
// layout it is built from, on an all-decoder plan, on a mixed one and on
// one with a dead parity disk, where some chains lose nothing: every
// source is listed once, in disk-then-row order, and folds into exactly
// the accumulators of the chains that contain it; a source counts as
// fetched iff a Fetch equation lists it. With verify every chain of the
// layout has an accumulator, every surviving chunk is a source and every
// checked chain has its snapshot; with NoVerify only the chains with a
// lost cell have one, the sources are the scheme's distinct fetches and
// nothing is copied but the chain of a cell that kept its single chain,
// whose snapshot is that cell. A decoder cell is an accumulator of its
// own. The pass never holds more than 2·chains buffers beside the read
// buffer.
func TestDecodePassShape(t *testing.T) {
	for _, tc := range []struct {
		code  string
		disks []int
		kept  int // cells of the plan that keep a single chain
	}{{"tip", []int{1, 3, 4}, 0}, {"triplestar", []int{0, 1}, 2}, {"tip", []int{0, 5}, 4}} {
		for _, noVerify := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s-kill%v-noverify=%v", tc.code, tc.disks, noVerify), func(t *testing.T) {
				code := codes.MustNew(tc.code, 5)
				var lost []grid.Coord
				isLost := map[grid.Coord]bool{}
				for row := 0; row < code.Rows(); row++ {
					for _, d := range tc.disks {
						lost = append(lost, grid.Coord{Row: row, Col: d})
						isLost[grid.Coord{Row: row, Col: d}] = true
					}
				}
				s := &service{cfg: &ServiceConfig{Strategy: core.StrategyLooped, NoVerify: noVerify}, code: code}
				plan, err := s.planFor(0, lost)
				if err != nil {
					t.Fatal(err)
				}
				selected, pass := plan.scheme.Selected, plan.pass
				if !slices.ContainsFunc(selected, func(sel core.SelectedChain) bool { return sel.Decoded }) {
					t.Fatal("fixture plan has no decoder selection")
				}
				if again, _ := s.planFor(0, lost); again != plan {
					t.Error("plan and pass rebuilt on second use")
				}

				// The accumulators: every chain of the layout holding a lost cell,
				// and with verify the others too.
				accOf := map[grid.ChainID]int{}
				for i, ch := range pass.chains {
					accOf[ch.ID()] = i
				}
				lossless := map[int]bool{}
				for _, ch := range code.Layout().Chains() {
					acc, have := accOf[ch.ID()]
					holds := len(ch.Survivors(isLost)) < len(ch.Cells)
					if have != (holds || !noVerify) {
						t.Fatalf("chain %v: holds a lost cell = %v, has an accumulator = %v", ch.ID(), holds, have)
					}
					if have && !holds {
						lossless[acc] = true
					}
				}
				if len(pass.chains)+len(pass.snaps) > 2*len(pass.chains) {
					t.Fatalf("%d chains and %d snapshots: more than 2·chains buffers", len(pass.chains), len(pass.snaps))
				}
				for _, op := range pass.ops {
					if lossless[op.Dst] || lossless[op.Src] {
						t.Fatalf("operation %+v touches a chain that lost nothing", op)
					}
				}

				inFetch := map[grid.Coord]bool{}
				for _, sel := range selected {
					for _, c := range sel.Fetch {
						inFetch[c] = true
					}
				}
				fetched := 0
				for k, src := range pass.sources {
					if k > 0 {
						if prev := pass.sources[k-1].cell; prev.Col > src.cell.Col || (prev.Col == src.cell.Col && prev.Row >= src.cell.Row) {
							t.Fatalf("sources %v then %v: not distinct in disk-then-row order", prev, src.cell)
						}
					}
					if isLost[src.cell] || src.fetched != inFetch[src.cell] {
						t.Fatalf("source %v: lost=%v fetched=%v, in a Fetch equation=%v", src.cell, isLost[src.cell], src.fetched, inFetch[src.cell])
					}
					if src.fetched {
						fetched++
					}
					folds := map[int]bool{}
					for _, acc := range src.folds {
						if folds[acc] {
							t.Fatalf("source %v folds into accumulator %d twice", src.cell, acc)
						}
						folds[acc] = true
					}
					for acc, ch := range pass.chains {
						if ch.Contains(src.cell) != folds[acc] {
							t.Fatalf("source %v: on chain %v = %v, folded into it = %v", src.cell, ch.ID(), ch.Contains(src.cell), folds[acc])
						}
					}
				}
				if fetched != plan.scheme.UniqueFetches() {
					t.Fatalf("%d sources fetched, scheme plans %d distinct reads", fetched, plan.scheme.UniqueFetches())
				}
				if noVerify {
					if fetched != len(pass.sources) || len(pass.snaps) != tc.kept || pass.checks != nil || pass.spare != nil {
						t.Fatalf("without verify: %d sources for %d fetches, %d snapshots for %d chain-kept cells, checks %v, spare %v",
							len(pass.sources), fetched, len(pass.snaps), tc.kept, pass.checks, pass.spare)
					}
				} else if survivors := code.Layout().Cells() - len(lost); len(pass.sources) != survivors {
					t.Fatalf("with verify: %d sources, %d chunks of the stripe survive", len(pass.sources), survivors)
				}

				// Outputs: a decoder cell is an accumulator of its own, a cell that
				// kept its chain the snapshot of that chain's syndrome.
				used, kept := map[int]bool{}, 0
				for i, sel := range selected {
					out := pass.outputs[i]
					if used[out] {
						t.Fatalf("buffer %d is the output of two cells", out)
					}
					used[out] = true
					if sel.Decoded {
						if out >= len(pass.chains) {
							t.Fatalf("decoder cell %v comes out of buffer %d, not an accumulator", sel.Lost, out)
						}
						continue
					}
					kept++
					if k := out - len(pass.chains); k < 0 || pass.snaps[k] != accOf[sel.Chain] {
						t.Fatalf("chain-kept cell %v comes out of buffer %d, not the snapshot of chain %v", sel.Lost, out, sel.Chain)
					}
				}
				if kept != tc.kept {
					t.Fatalf("%d cells keep a single chain, fixture says %d", kept, tc.kept)
				}

				// Checks: every chain with a lost cell but the chain-kept cells'
				// own (no cell of these fixtures is unsolved), against its
				// snapshot, folding back exactly its rebuilt members; a chain that
				// lost nothing is zero as it stands.
				if !noVerify && len(pass.checks) != len(pass.chains)-len(lossless)-tc.kept {
					t.Fatalf("%d checks for %d chains less %d that lost nothing and %d kept", len(pass.checks), len(pass.chains), len(lossless), tc.kept)
				}
				spare := map[int]bool{}
				for _, acc := range pass.spare {
					spare[acc] = true
				}
				for acc := range lossless {
					if !spare[acc] {
						t.Fatalf("chain %v lost nothing and is not tested for zero", pass.chains[acc].ID())
					}
				}
				for _, check := range pass.checks {
					ch := pass.chains[check.chain]
					if k := check.snap - len(pass.chains); k < 0 || pass.snaps[k] != check.chain || used[check.snap] {
						t.Fatalf("check of chain %v tests buffer %d: not its snapshot, or a cell's output", ch.ID(), check.snap)
					}
					if want := len(ch.Cells) - len(ch.Survivors(isLost)); len(check.cells) != want {
						t.Fatalf("check of chain %v folds back %d cells, the chain lost %d", ch.ID(), len(check.cells), want)
					}
					for _, i := range check.cells {
						if !ch.Contains(selected[i].Lost) {
							t.Fatalf("check of chain %v folds back %v, not a member", ch.ID(), selected[i].Lost)
						}
					}
				}
			})
		}
	}
}

// TestServiceNoVerify pins the unchecked mode on both kinds of plan: no
// chunk is counted verified and the backend is asked for nothing on the
// oracle's behalf, yet the bytes are right.
func TestServiceNoVerify(t *testing.T) {
	const seed = 17
	m := testManifest("triplestar", 5, 3, 64)
	for name, damage := range map[string]func(*store.Mem){
		"partial-stripes": func(b *store.Mem) { losePartialStripes(t, b, m, 3) },
		"dead-disks":      func(b *store.Mem) { killDisk(t, b, 0); killDisk(t, b, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			b := initMem(t, m, seed)
			damage(b)
			dry, err := RunService(ServiceConfig{Backend: b, Manifest: m, DryRun: true})
			if err != nil {
				t.Fatal(err)
			}
			counter := newReadCounter(b)
			res, err := RunService(ServiceConfig{Backend: counter, Manifest: m, NoVerify: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.ChunksRebuilt != dry.PlannedChunks || res.ChunksVerified != 0 || res.VerifyReads != 0 {
				t.Fatalf("rebuilt %d of %d planned, %d verified, %d verify reads", res.ChunksRebuilt, dry.PlannedChunks, res.ChunksVerified, res.VerifyReads)
			}
			if got := uint64(counter.total()); got != res.DiskReads || got != uint64(dry.PlannedReads) {
				t.Fatalf("backend served %d reads, %d booked, %d planned (each source once)", got, res.DiskReads, dry.PlannedReads)
			}
			checkAgainstGroundTruth(t, b, m, seed)
		})
	}
}

// TestChainMajorCheckCounts pins what the pre-write check costs on the
// paper's damage: chunks 1–3 of disk 3 in each of three TIP p=7 stripes
// (CI's third storage-engine drill on a memstore). The repair reads each
// of the plan's distinct sources once, booked as a miss (the engine keeps
// no byte cache, so it books no hit) — the check folds each fetched chunk
// as it passes, without a read of its own — and the check's own reads are
// the check-chain members no repair chain fetches, each once: 12 a
// stripe. Every read the backend served is booked as one or the other,
// and no chunk is read twice.
func TestChainMajorCheckCounts(t *testing.T) {
	const seed = 7
	m := testManifest("tip", 7, 3, 64)
	b := initMem(t, m, seed)
	for s := 0; s < m.Stripes; s++ {
		loseCells(t, b, s, core.PartialStripeError{Stripe: s, Disk: 3, Row: 1, Size: 3}.LostCells())
	}
	counter := newReadCounter(b)
	res, err := RunService(ServiceConfig{Backend: counter, Manifest: m, Strategy: core.StrategyLooped})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunksRebuilt != 9 || res.ChunksVerified != 9 || res.ChunksDecoded != 0 {
		t.Fatalf("rebuilt %d, verified %d, decoded %d; want 9, 9, 0", res.ChunksRebuilt, res.ChunksVerified, res.ChunksDecoded)
	}
	if res.DiskReads != 51 || res.VerifyReads != 36 || res.CacheHits != 0 || res.CacheMisses != 51 {
		t.Fatalf("%d reads + %d verify reads, %d hits, %d misses; want 51 + 36, 0, 51", res.DiskReads, res.VerifyReads, res.CacheHits, res.CacheMisses)
	}
	if got := uint64(counter.total()); got != res.DiskReads+res.VerifyReads {
		t.Fatalf("backend served %d reads, %d + %d booked", got, res.DiskReads, res.VerifyReads)
	}
	for a, n := range counter.reads {
		if n > 1 {
			t.Fatalf("%v read %d times", a, n)
		}
	}
	checkAgainstGroundTruth(t, b, m, seed)
}

// TestMemPartialCounts runs the benchmark's mem-partial workload — TIP
// p=13, 256 stripes, one partial stripe error from trace.Generate per
// stripe (seed 1), looped strategy — and pins its counts, which no chunk
// size or host moves: the repair's reads, each planned source once and
// booked as a miss, with no hit (rebuild.disk_reads_per_chunk 9.7969)
// and the zero test's reads; read_amp is their sum over the chunks
// rebuilt, 24 710 / 1 664 = 14.8498. The chunks are 1 KiB, not the
// benchmark's 32: the same counts at 4 KiB held 660 MB under -race.
func TestMemPartialCounts(t *testing.T) {
	const seed = 1
	m := testManifest("tip", 13, 256, 1024)
	code := codes.MustNew(m.Code, m.P)
	errs, err := trace.Generate(code, trace.Config{Groups: m.Stripes, Stripes: m.Stripes, Seed: seed, Disk: -1, Dist: trace.SizeUniform})
	if err != nil {
		t.Fatal(err)
	}
	b := initMem(t, m, seed)
	lost := 0
	for _, e := range errs {
		loseCells(t, b, e.Stripe, e.LostCells())
		lost += e.Size
	}
	res, err := RunService(ServiceConfig{Backend: b, Manifest: m, Strategy: core.StrategyLooped})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunksRebuilt != lost || res.ChunksVerified != lost || res.ChunksDecoded != 0 || res.Escalations != 0 {
		t.Fatalf("rebuilt %d of %d, verified %d, decoded %d, %d escalations", res.ChunksRebuilt, lost, res.ChunksVerified, res.ChunksDecoded, res.Escalations)
	}
	if res.DiskReads != 16302 || res.CacheHits != 0 || res.CacheMisses != 16302 || res.VerifyReads != 8408 {
		t.Fatalf("%d reads + %d verify reads, %d hits, %d misses; want 16302 + 8408, 0, 16302", res.DiskReads, res.VerifyReads, res.CacheHits, res.CacheMisses)
	}
}

// TestChainMajorCheckBesideDataLoss is a chain-major plan with unsolved
// cells: a weight-4 codeword of the stripe is lost — no chain and no
// decoder rebuilds any of the four — beside one cell that kept a clean
// chain, and every other chain through that cell crosses the four. The
// check must not read a cell accounted as data loss (it would find it
// missing, escalate it, get the same plan back and never finish): the
// cell is rebuilt through its clean chain, written with nothing left to
// test it against, the four are the run's loss, and a second stripe with
// ordinary damage is still repaired afterwards.
func TestChainMajorCheckBesideDataLoss(t *testing.T) {
	const seed = 23
	for _, tc := range []struct {
		code    string
		cluster []grid.Coord
	}{
		{"triplestar", []grid.Coord{{Row: 0, Col: 5}, {Row: 0, Col: 6}, {Row: 2, Col: 2}, {Row: 2, Col: 3}}},
		{"tip", []grid.Coord{{Row: 0, Col: 4}, {Row: 0, Col: 5}, {Row: 2, Col: 1}, {Row: 2, Col: 2}}},
	} {
		t.Run(tc.code, func(t *testing.T) {
			m := testManifest(tc.code, 5, 2, 64)
			b := initMem(t, m, seed)
			loseCells(t, b, 0, append([]grid.Coord{{Row: 0, Col: 0}}, tc.cluster...))
			loseCells(t, b, 1, []grid.Coord{{Row: 1, Col: 1}})
			res, err := RunService(ServiceConfig{Backend: b, Manifest: m, Strategy: core.StrategyTypical})
			if err != nil {
				t.Fatalf("RunService: %v", err)
			}
			if res.ChunksRebuilt != 2 || res.ChunksDecoded != 0 || res.Escalations != 0 || len(res.Lost) != len(tc.cluster) {
				t.Fatalf("rebuilt %d, decoded %d, %d escalations, lost %v; want 2, 0, 0 and the four cells of %v", res.ChunksRebuilt, res.ChunksDecoded, res.Escalations, res.Lost, tc.cluster)
			}
			for i, c := range tc.cluster {
				if res.Lost[i] != AddrOf(0, c) {
					t.Fatalf("lost %v, want the cells of %v in stripe 0", res.Lost, tc.cluster)
				}
			}
			checkAgainstGroundTruth(t, b, m, seed, res.Lost...)
		})
	}
}

// sourceFailures are the three ways a chunk the header-only scan passed
// can turn out unreadable when its payload is asked for.
func sourceFailures(chunkSize int) map[string]func(store.Addr) (int, error) {
	return map[string]func(store.Addr) (int, error){
		"not-found": func(a store.Addr) (int, error) { return 0, &store.NotFoundError{Addr: a} },
		"corrupt":   func(a store.Addr) (int, error) { return 0, &store.CorruptError{Addr: a, Err: store.ErrChecksum} },
		"short":     func(store.Addr) (int, error) { return chunkSize / 2, nil }, // a valid chunk of another geometry
	}
}

// failKthRead serves the k-th payload read of one stripe as a failure,
// once: the chunk the scan believed healthy turns out unreadable.
type failKthRead struct {
	store.Backend
	stripe, k int
	fail      func(store.Addr) (int, error) // what that read returns
	seen      int
}

func (f *failKthRead) ReadChunk(a store.Addr, dst []byte) (int, error) {
	if a.Stripe == f.stripe {
		if f.seen++; f.seen == f.k {
			return f.fail(a)
		}
	}
	return f.Backend.ReadChunk(a, dst)
}

// TestServiceEscalationMidPass fails every source read of a read-once
// pass in turn, as missing, as corrupt and as the wrong size. The pass has written nothing
// when a read fails, so the escalation restarts it on the grown lost
// set: the run never errors, never reads a stripe again after writing
// to it, and ends byte-exact — or, when the fourth unreadable column
// exceeds the code, with exactly the cells it could not solve accounted
// as lost and everything else byte-exact.
func TestServiceEscalationMidPass(t *testing.T) {
	const seed = 31
	m := testManifest("star", 5, 2, 64)
	fails := sourceFailures(m.ChunkSize)
	for _, disks := range [][]int{{0, 2}, {0, 2, 4}} {
		damaged := func() *store.Mem {
			b := initMem(t, m, seed)
			for _, d := range disks {
				killDisk(t, b, d)
			}
			return b
		}
		clean := newReadCounter(damaged())
		if _, err := RunService(ServiceConfig{Backend: clean, Manifest: m}); err != nil {
			t.Fatal(err)
		}
		sources := clean.total() / m.Stripes
		if sources < 10 {
			t.Fatalf("a pass of only %d reads; the sweep would prove little", sources)
		}
		for kind, fail := range fails {
			t.Run(fmt.Sprintf("kill%v-%s", disks, kind), func(t *testing.T) {
				for k := 1; k <= sources; k++ {
					b := damaged()
					counter := newReadCounter(b)
					res, err := RunService(ServiceConfig{
						Backend:  &failKthRead{Backend: counter, stripe: 1, k: k, fail: fail},
						Manifest: m,
					})
					if err != nil {
						t.Fatalf("read %d: %v", k, err)
					}
					if res.Escalations < 1 || res.Regenerations != res.Escalations {
						t.Fatalf("read %d: %d escalations, %d regenerations", k, res.Escalations, res.Regenerations)
					}
					if counter.readAfterWrite {
						t.Fatalf("read %d: a stripe was read again after its first write-back", k)
					}
					if res.DataLoss != (len(res.Lost) > 0) || (len(disks) < 3 && res.DataLoss) {
						t.Fatalf("read %d: DataLoss=%v with lost cells %v", k, res.DataLoss, res.Lost)
					}
					for _, a := range res.Lost {
						if a.Stripe != 1 {
							t.Fatalf("read %d: lost %v outside the failing stripe", k, a)
						}
					}
					if want := len(disks)*m.Rows*m.Stripes + 1 - len(res.Lost); res.ChunksRebuilt != want || res.ChunksVerified != want {
						// The failed source is healthy underneath, so when it is
						// accounted lost it still reads back true below.
						t.Fatalf("read %d: rebuilt %d, verified %d, want %d (lost %v)", k, res.ChunksRebuilt, res.ChunksVerified, want, res.Lost)
					}
					var stillMissing []store.Addr
					for _, a := range res.Lost {
						if _, err := b.Stat(a); err != nil {
							stillMissing = append(stillMissing, a)
						}
					}
					checkAgainstGroundTruth(t, b, m, seed, stillMissing...)
				}
			})
		}
	}
}

// unreadable serves every payload read of one address as a failure
// until the chunk is written back: rot the header-only scan cannot see.
type unreadable struct {
	store.Backend
	addr store.Addr
	fail func(store.Addr) (int, error) // nil once the chunk is rewritten
}

func (u *unreadable) ReadChunk(a store.Addr, dst []byte) (int, error) {
	if a == u.addr && u.fail != nil {
		return u.fail(a)
	}
	return u.Backend.ReadChunk(a, dst)
}

func (u *unreadable) WriteChunk(a store.Addr, data []byte) error {
	if a == u.addr {
		u.fail = nil
	}
	return u.Backend.WriteChunk(a, data)
}

// TestServiceOracleSourceEscalates rots, one at a time, every chunk of a
// chain-major stripe that no selected chain fetches and only the pre-write
// check reads (the name is from when that check was the GF(2) oracle), as
// missing, as corrupt and as the wrong size. That is damage well inside
// the code's tolerance, found by the check's read rather than a chain's:
// it must escalate and be repaired exactly as a chain source would, not
// abort the rebuild with an engine error.
func TestServiceOracleSourceEscalates(t *testing.T) {
	const seed = 17
	m := testManifest("tip", 7, 2, 64)
	code := codes.MustNew(m.Code, m.P)
	e := core.PartialStripeError{Stripe: 1, Disk: 2, Row: 0, Size: 2}
	lost := e.LostCells()
	scheme, _, err := core.RegenerateScheme(code, e, lost, nil, core.StrategyLooped)
	if err != nil {
		t.Fatal(err)
	}
	fetched := map[grid.Coord]bool{}
	for _, sel := range scheme.Selected {
		if sel.Decoded {
			t.Fatalf("fixture is not chain-major: %v takes the decoder", sel.Lost)
		}
		for _, c := range sel.Fetch {
			fetched[c] = true
		}
	}
	damaged := func() *store.Mem {
		b := initMem(t, m, seed)
		loseCells(t, b, e.Stripe, lost)
		return b
	}
	clean := newReadCounter(damaged())
	if _, err := RunService(ServiceConfig{Backend: clean, Manifest: m, Strategy: core.StrategyLooped}); err != nil {
		t.Fatal(err)
	}
	var checkOnly []grid.Coord
	for a := range clean.reads {
		if cell := (grid.Coord{Row: a.Chunk, Col: a.Disk}); a.Stripe == e.Stripe && !fetched[cell] {
			checkOnly = append(checkOnly, cell)
		}
	}
	if len(checkOnly) == 0 {
		t.Fatal("every chunk the check reads is a chain source too; the fixture proves nothing")
	}
	for kind, fail := range sourceFailures(m.ChunkSize) {
		t.Run(kind, func(t *testing.T) {
			for _, victim := range checkOnly {
				b := damaged()
				res, err := RunService(ServiceConfig{
					Backend:  &unreadable{Backend: b, addr: AddrOf(e.Stripe, victim), fail: fail},
					Manifest: m, Strategy: core.StrategyLooped,
				})
				if err != nil {
					t.Fatalf("check-only member %v: %v", victim, err)
				}
				if res.Escalations < 1 || res.Regenerations != res.Escalations {
					t.Fatalf("check-only member %v: %d escalations, %d regenerations", victim, res.Escalations, res.Regenerations)
				}
				if res.DataLoss != (len(res.Lost) > 0) {
					t.Fatalf("check-only member %v: DataLoss=%v with lost cells %v", victim, res.DataLoss, res.Lost)
				}
				if want := len(lost) + 1 - len(res.Lost); res.ChunksRebuilt != want || res.ChunksVerified != want {
					t.Fatalf("check-only member %v: rebuilt %d, verified %d, want %d (lost %v)", victim, res.ChunksRebuilt, res.ChunksVerified, want, res.Lost)
				}
				var stillMissing []store.Addr
				for _, a := range res.Lost {
					if _, err := b.Stat(a); err != nil {
						stillMissing = append(stillMissing, a)
					}
				}
				checkAgainstGroundTruth(t, b, m, seed, stillMissing...)
			}
		})
	}
}

// journalRecords decodes the journal at path and returns its record
// types in order, up to a torn tail.
func journalRecords(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var types []byte
	for rest := data[journalHeaderSize:]; ; {
		typ, _, n, ok := nextFrame(rest)
		if !ok {
			return types, nil
		}
		types = append(types, typ)
		rest = rest[n:]
	}
}

// TestServiceSurvivorUnreadableMidStripe makes a survivor unreadable at
// the stripe's middle read and at its last, after the repair has rebuilt
// some or all of its cells in memory: every single-disk run from row 0 of
// two or more cells, four codes at p = 5 and 7. Nothing of a stripe is
// written before every read of it is done, so at the failing read no
// chunk of the stripe has been written and the journal ends with exactly
// one commit record per rebuilt chunk, each of a distinct address; the
// re-plan is the grown lost set's and rebuilds the stripe byte-exact, the
// escalated survivor among its cells.
func TestServiceSurvivorUnreadableMidStripe(t *testing.T) {
	const seed = 23
	runs := 0
	for _, name := range []string{"star", "triplestar", "tip", "hdd1"} {
		for _, p := range []int{5, 7} {
			m := testManifest(name, p, 1, 16)
			for disk := 0; disk < m.Disks; disk++ {
				for size := 2; size <= m.Rows; size++ {
					lost := core.PartialStripeError{Disk: disk, Size: size}.LostCells()
					damaged := func() *store.Mem {
						b := initMem(t, m, seed)
						loseCells(t, b, 0, lost)
						return b
					}
					clean := newReadCounter(damaged())
					if _, err := RunService(ServiceConfig{Backend: clean, Manifest: m}); err != nil {
						t.Fatal(err)
					}
					reads := clean.total()
					for _, k := range []int{(reads + 1) / 2, reads} {
						where := fmt.Sprintf("%s p=%d disk %d rows 0-%d, read %d of %d", name, p, disk, size-1, k, reads)
						b := damaged()
						counter := newReadCounter(b)
						written := true
						journal := filepath.Join(t.TempDir(), "journal")
						var records []byte
						var commits map[store.Addr]uint32
						res, err := RunService(ServiceConfig{
							Backend: &failKthRead{Backend: counter, stripe: 0, k: k, fail: func(a store.Addr) (int, error) {
								written = counter.written[0]
								return 0, &store.NotFoundError{Addr: a}
							}},
							Manifest: m, JournalPath: journal,
							Progress: func(Progress) {
								var err error
								if records, err = journalRecords(journal); err != nil {
									t.Fatal(err)
								}
								commits = replayJournal(t, journal).Commits
							},
						})
						runs++
						if err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						if written {
							t.Fatalf("%s: the stripe was written before its read failed", where)
						}
						if res.Escalations != 1 || res.Regenerations != 1 || res.DataLoss || res.ChunksRebuilt != size+1 {
							t.Fatalf("%s: %d escalations, %d regenerations, dataloss=%v, %d chunks rebuilt (want 1, 1, false, %d)", where, res.Escalations, res.Regenerations, res.DataLoss, res.ChunksRebuilt, size+1)
						}
						if n := bytes.Count(records, []byte{recCommit}); n != res.ChunksRebuilt || len(commits) != n {
							t.Fatalf("%s: journal records %v: %d commits of %d addresses, want one per rebuilt chunk (%d)", where, records, n, len(commits), res.ChunksRebuilt)
						}
						checkAgainstGroundTruth(t, b, m, seed)
					}
				}
			}
		}
	}
	t.Logf("%d runs", runs)
}

// TestServiceScrubFindsPayloadRot pins the scan layering: the default
// header-only scan misses payload bit-rot, the scrub scan reads and
// CRC-checks every payload and reports it as corrupt damage.
func TestServiceScrubFindsPayloadRot(t *testing.T) {
	const seed = 3
	m := testManifest("star", 5, 2, 64)
	dir := t.TempDir()
	b, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := InitStore(b, m, seed); err != nil {
		t.Fatal(err)
	}
	rotted := store.Addr{Disk: 4, Stripe: 1, Chunk: 2}
	rotPayloadByte(t, dir, rotted)

	plain, err := ScanStore(b, m, false)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Clean() {
		t.Fatalf("header-only scan flagged payload rot: %+v", plain)
	}
	scrub, err := ScanStore(b, m, true)
	if err != nil {
		t.Fatal(err)
	}
	if scrub.CorruptChunks != 1 || len(scrub.Stripes) != 1 || scrub.Stripes[0].Stripe != 1 {
		t.Fatalf("scrub scan: %+v", scrub)
	}

	// A scrub rebuild repairs the rot in place.
	res, err := RunService(ServiceConfig{Backend: b, Manifest: m, Scrub: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunksRebuilt != 1 || res.DataLoss {
		t.Fatalf("scrub rebuild: %+v", res)
	}
	checkAgainstGroundTruth(t, b, m, seed)
}

// TestServiceBeyondTolerance kills one disk more than the code
// tolerates: the run must finish without error, reporting the
// unsolvable cells as data loss rather than fabricating bytes.
func TestServiceBeyondTolerance(t *testing.T) {
	const seed = 13
	m := testManifest("star", 5, 2, 64)
	b := initMem(t, m, seed)
	for d := 0; d < 4; d++ {
		killDisk(t, b, d)
	}
	res, err := RunService(ServiceConfig{Backend: b, Manifest: m})
	if err != nil {
		t.Fatalf("RunService: %v", err)
	}
	if !res.DataLoss || len(res.Lost) == 0 {
		t.Fatal("4-disk kill on a 3DFT code must report data loss")
	}
}

// TestServicePriorityVulnerable damages two stripes unevenly and
// expects the most-damaged stripe to be repaired first.
func TestServicePriorityVulnerable(t *testing.T) {
	const seed = 21
	m := testManifest("star", 5, 4, 64)
	b := initMem(t, m, seed)
	// Stripe 1: one lost chunk. Stripe 3: a whole column.
	if err := b.Delete(store.Addr{Disk: 0, Stripe: 1, Chunk: 0}); err != nil {
		t.Fatal(err)
	}
	for row := 0; row < m.Rows; row++ {
		if err := b.Delete(store.Addr{Disk: 2, Stripe: 3, Chunk: row}); err != nil {
			t.Fatal(err)
		}
	}
	var order []int
	_, err := RunService(ServiceConfig{
		Backend: b, Manifest: m,
		Priority: PriorityVulnerable,
		Progress: func(p Progress) { order = append(order, p.Stripe) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 3 || order[1] != 1 {
		t.Fatalf("vulnerable-first repair order = %v, want [3 1]", order)
	}
	checkAgainstGroundTruth(t, b, m, seed)
}

// TestServiceCleanStoreIsNoOp pins that a healthy store is scanned and
// left alone.
func TestServiceCleanStoreIsNoOp(t *testing.T) {
	m := testManifest("star", 5, 2, 64)
	rec := &recordingBackend{Backend: initMem(t, m, 1)}
	rec.writes = 0 // reset after init
	res, err := RunService(ServiceConfig{Backend: rec, Manifest: m})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Clean() || res.ChunksRebuilt != 0 || rec.writes != 0 {
		t.Fatalf("clean store was touched: %+v (writes %d)", res, rec.writes)
	}
}

// TestServiceConfigValidation walks the rejection table.
func TestServiceConfigValidation(t *testing.T) {
	m := testManifest("star", 5, 1, 32)
	good := func() ServiceConfig {
		return ServiceConfig{Backend: store.NewMem(), Manifest: m}
	}
	cases := []struct {
		name   string
		mutate func(*ServiceConfig)
	}{
		{"nil-backend", func(c *ServiceConfig) { c.Backend = nil }},
		{"bad-priority", func(c *ServiceConfig) { c.Priority = "fastest" }},
		{"check-only-and-dry-run", func(c *ServiceConfig) { c.CheckOnly, c.DryRun = true, true }},
		{"bad-manifest", func(c *ServiceConfig) { c.Manifest.ChunkSize = 0 }},
		{"geometry-mismatch", func(c *ServiceConfig) { c.Manifest.Disks = 99 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good()
			tc.mutate(&cfg)
			if _, err := RunService(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	// And the good config itself must pass.
	if _, err := RunService(good()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestInitStoreGeometryMismatch rejects a manifest whose dimensions
// disagree with its code.
func TestInitStoreGeometryMismatch(t *testing.T) {
	m := testManifest("star", 5, 1, 32)
	m.Rows = 2
	if err := InitStore(store.NewMem(), m, 1); err == nil {
		t.Fatal("InitStore accepted a geometry-mismatched manifest")
	}
}

// TestScanStoreReportsExtraChunks pins that out-of-geometry chunks are
// reported, never deleted.
func TestScanStoreReportsExtraChunks(t *testing.T) {
	m := testManifest("star", 5, 2, 64)
	b := initMem(t, m, 1)
	stray := store.Addr{Disk: 0, Stripe: 99, Chunk: 0}
	if err := b.WriteChunk(stray, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	rep, err := ScanStore(b, m, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("stray chunk counted as damage: %+v", rep)
	}
	if len(rep.ExtraChunks) != 1 || rep.ExtraChunks[0] != stray {
		t.Fatalf("ExtraChunks = %v, want [%v]", rep.ExtraChunks, stray)
	}
	if _, err := b.Stat(stray); err != nil {
		t.Fatalf("scan deleted the stray chunk: %v", err)
	}
}

// rotPayloadByte flips one payload byte of a dirstore chunk file in
// place, leaving the header intact — silent media bit-rot.
func rotPayloadByte(t *testing.T, dir string, a store.Addr) {
	t.Helper()
	path := filepath.Join(dir, store.ChunkPath(a))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[store.HeaderSize+7] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestServiceGridCoordOrder guards the Addr<->Coord mapping the whole
// engine rests on: column is disk, row is chunk slot.
func TestServiceGridCoordOrder(t *testing.T) {
	a := AddrOf(7, grid.Coord{Row: 2, Col: 5})
	want := store.Addr{Disk: 5, Stripe: 7, Chunk: 2}
	if a != want {
		t.Fatalf("AddrOf = %v, want %v", a, want)
	}
}
