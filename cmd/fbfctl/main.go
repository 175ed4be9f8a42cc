// Command fbfctl manages on-disk fbf chunk stores: it materializes
// arrays, reports their health, and drives the storage-engine rebuild —
// the simulator's scheme and escalation machinery applied to real bytes
// behind internal/store, each stripe's sources read once. The paper's
// cache policies are the simulator's (fbfsim -policies); the engine has
// no cache to choose.
//
// Usage:
//
//	fbfctl init    -store DIR -code NAME [-p N] [-stripes N] [-chunk BYTES] [-seed N]
//	fbfctl status  -store DIR [-o scrub]
//	fbfctl rebuild -store DIR [-strategy NAME] [-progress]
//	               [-o check-only] [-o dry-run] [-o scrub] [-o no-verify]
//	               [-o priority=sequential|vulnerable] [-o resume]
//	               [-o rate-limit=BYTES/S]
//	fbfctl daemon  -store DIR [-interval DUR] [-listen ADDR] [-strategy NAME]
//	               [-o scrub] [-o no-verify] [-o priority=...]
//	               [-o rate-limit=BYTES/S] [-o retries=N] [-o max-scans=N]
//
// Operator options follow the rclone `-o key[=value]` convention.
// `rebuild -o resume` journals progress to <store>/rebuild.journal and
// resumes from it after a crash or interrupt; `daemon` watches the
// store, journaling every repair. Both shut down gracefully on
// SIGINT/SIGTERM: the writes in flight are finished, the journal
// synced, and a summary printed.
//
// `daemon -listen :9920` serves live operational telemetry over HTTP:
// /metrics (Prometheus text exposition of store I/O, rebuild and daemon
// counters), /healthz (200 while running, 503 once shutdown begins) and
// /progress (JSON of the watch phase and the pass in flight). Without
// -listen no listener is opened and no telemetry is collected.
//
// Exit status: 0 success (and store clean), 1 error, 2 damage present
// (status, rebuild -o check-only) or data loss (rebuild, daemon),
// 3 interrupted by a shutdown signal (journal kept for resume).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"fbf/internal/cli"
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/rebuild"
	"fbf/internal/store"
	"fbf/internal/telemetry"
)

const (
	exitOK          = 0
	exitErr         = 1
	exitDamaged     = 2
	exitInterrupted = 3
)

// journalName is the rebuild journal's filename inside the store root.
const journalName = "rebuild.journal"

// testStop, when non-nil, feeds notifyStop alongside real signals — the
// seam that lets tests exercise interrupted runs deterministically.
var testStop <-chan struct{}

// testListenReady, when non-nil, receives the telemetry server's bound
// address once it is serving — the seam daemon-endpoint tests use to
// scrape a `-listen 127.0.0.1:0` daemon mid-run.
var testListenReady func(addr string)

// notifyStop returns a channel closed on SIGINT/SIGTERM (the graceful
// shutdown request) and a cleanup func restoring default handling.
func notifyStop() (<-chan struct{}, func()) {
	if testStop != nil {
		return testStop, func() {}
	}
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		select {
		case <-sigs:
			close(stop)
		case <-done:
		}
	}()
	return stop, func() { signal.Stop(sigs); close(done) }
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func usage(stderr io.Writer) int {
	fmt.Fprintf(stderr, `usage:
  fbfctl init    -store DIR -code NAME [-p N] [-stripes N] [-chunk BYTES] [-seed N]
  fbfctl status  -store DIR [-o scrub]
  fbfctl rebuild -store DIR [-strategy NAME] [-progress]
                 [-o check-only] [-o dry-run] [-o scrub] [-o no-verify]
                 [-o priority=sequential|vulnerable] [-o resume] [-o rate-limit=BYTES/S]
  fbfctl daemon  -store DIR [-interval DUR] [-listen ADDR] [-strategy NAME]
                 [-o scrub] [-o no-verify] [-o priority=...]
                 [-o rate-limit=BYTES/S] [-o retries=N] [-o max-scans=N]

codes: %v  strategies: typical, looped, greedy
exit status: 0 ok, 1 error, 2 damage/data loss, 3 interrupted (journal kept)
`, codes.Names())
	return exitErr
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	switch args[0] {
	case "init":
		return runInit(args[1:], stdout, stderr)
	case "status":
		return runStatus(args[1:], stdout, stderr)
	case "rebuild":
		return runRebuild(args[1:], stdout, stderr)
	case "daemon":
		return runDaemon(args[1:], stdout, stderr)
	case "help", "-h", "-help", "--help":
		usage(stderr)
		return exitOK
	}
	fmt.Fprintf(stderr, "fbfctl: unknown command %q\n", args[0])
	return usage(stderr)
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "fbfctl: %v\n", err)
	return exitErr
}

func runInit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fbfctl init", flag.ContinueOnError)
	fs.SetOutput(stderr)
	storeDir := fs.String("store", "", "store directory (created if absent)")
	codeName := fs.String("code", "star", "erasure code name")
	p := fs.Int("p", 5, "code prime")
	stripes := fs.Int("stripes", 16, "stripes to materialize")
	chunkSize := fs.Int("chunk", 4096, "chunk size in bytes")
	seed := fs.Int64("seed", 1, "data seed")
	if err := fs.Parse(args); err != nil {
		return exitErr
	}
	if *storeDir == "" {
		return fail(stderr, fmt.Errorf("bad -store: empty store directory"))
	}
	code, err := codes.New(*codeName, *p)
	if err != nil {
		return fail(stderr, err)
	}
	if _, err := store.ReadManifest(*storeDir); err == nil {
		return fail(stderr, fmt.Errorf("%s already holds an fbf store (refusing to overwrite)", *storeDir))
	}
	m := store.ArrayManifest{
		Code: *codeName, P: *p,
		Disks: code.Disks(), Rows: code.Rows(),
		Stripes: *stripes, ChunkSize: *chunkSize,
	}
	b, err := store.OpenDir(*storeDir)
	if err != nil {
		return fail(stderr, err)
	}
	// The manifest goes last: a store an init left half-written holds no
	// manifest, so a rerun of the same init is not refused.
	if err := rebuild.InitStore(b, m, *seed); err != nil {
		return fail(stderr, err)
	}
	if err := store.WriteManifest(*storeDir, m); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "initialized %s (p=%d) array: %d chunks across %d disks\n",
		m.Code, m.P, m.Chunks(), m.Disks)
	printManifest(stdout, m)
	return exitOK
}

// openStore loads the manifest and dirstore backend of one store root.
func openStore(dir string) (store.ArrayManifest, *store.Dir, error) {
	if dir == "" {
		return store.ArrayManifest{}, nil, fmt.Errorf("bad -store: empty store directory")
	}
	m, err := store.ReadManifest(dir)
	if err != nil {
		return store.ArrayManifest{}, nil, err
	}
	b, err := store.OpenDir(dir)
	if err != nil {
		return store.ArrayManifest{}, nil, err
	}
	return m, b, nil
}

func printManifest(w io.Writer, m store.ArrayManifest) {
	fmt.Fprintf(w, "        code : %s (p=%d)\n", m.Code, m.P)
	fmt.Fprintf(w, "       disks : %d\n", m.Disks)
	fmt.Fprintf(w, "        rows : %d\n", m.Rows)
	fmt.Fprintf(w, "     stripes : %d\n", m.Stripes)
	fmt.Fprintf(w, "  chunk size : %d B\n", m.ChunkSize)
}

// printDamage renders a scan in mdadm --detail style. It returns
// whether the store is damaged.
func printDamage(w io.Writer, m store.ArrayManifest, rep *rebuild.DamageReport) bool {
	if rep.Clean() {
		fmt.Fprintf(w, "       state : clean\n")
	} else {
		fmt.Fprintf(w, "       state : degraded\n")
		fmt.Fprintf(w, "     missing : %d chunks\n", rep.MissingChunks)
		fmt.Fprintf(w, "     corrupt : %d chunks\n", rep.CorruptChunks)
		if len(rep.FailedDisks) > 0 {
			names := ""
			for i, d := range rep.FailedDisks {
				if i > 0 {
					names += ", "
				}
				names += store.DiskDirName(d)
			}
			fmt.Fprintf(w, "failed disks : %d (%s)\n", len(rep.FailedDisks), names)
		}
		fmt.Fprintf(w, "    degraded : %d of %d stripes\n", len(rep.Stripes), m.Stripes)
	}
	if len(rep.ExtraChunks) > 0 {
		fmt.Fprintf(w, "       extra : %d chunks outside the array geometry\n", len(rep.ExtraChunks))
	}
	return !rep.Clean()
}

func runStatus(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fbfctl status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	storeDir := fs.String("store", "", "store directory")
	var opts cli.Options
	fs.Var(&opts, "o", "operator option: scrub")
	if err := fs.Parse(args); err != nil {
		return exitErr
	}
	if unknown := opts.Unknown("scrub"); len(unknown) > 0 {
		return fail(stderr, fmt.Errorf("unknown -o options %v (status knows: scrub)", unknown))
	}
	scrub, err := opts.Bool("scrub")
	if err != nil {
		return fail(stderr, err)
	}
	m, b, err := openStore(*storeDir)
	if err != nil {
		return fail(stderr, err)
	}
	rep, err := rebuild.ScanStore(b, m, scrub)
	if err != nil {
		return fail(stderr, err)
	}
	printManifest(stdout, m)
	if printDamage(stdout, m, rep) {
		return exitDamaged
	}
	return exitOK
}

// openService is the command line rebuild and daemon share: it declares on
// fs, beside the caller's own flags, the ones that name the store and the
// repair machinery, parses args, rejects -o keys outside known and opens
// the store (dir). With rate-limit (chunk payload bytes per second)
// cfg.Backend is dir behind throttle, the handle telemetry exposes. When
// ok is false the reason is on stderr and the exit status is exitErr.
func openService(fs *flag.FlagSet, stderr io.Writer, args []string, opts *cli.Options, known ...string) (cfg rebuild.ServiceConfig, dir *store.Dir, throttle *store.Throttle, ok bool) {
	fs.SetOutput(stderr)
	storeDir := fs.String("store", "", "store directory")
	strategy := fs.String("strategy", "looped", "chain-selection strategy")
	err := fs.Parse(args)
	if err != nil {
		return cfg, nil, nil, false // the flag set has said why
	}
	if unknown := opts.Unknown(known...); len(unknown) > 0 {
		err = fmt.Errorf("unknown -o options %v (%s knows: %s)", unknown, strings.TrimPrefix(fs.Name(), "fbfctl "), strings.Join(known, ", "))
	}
	if err == nil {
		cfg.Strategy, err = core.ParseStrategy(*strategy)
	}
	if err == nil {
		cfg.Manifest, dir, err = openStore(*storeDir)
	}
	var rate int64
	if err == nil {
		rate, err = opts.Int64("rate-limit", 0)
	}
	if cfg.Backend = dir; err == nil && opts.Has("rate-limit") {
		if throttle, err = store.NewThrottle(dir, rate); err == nil {
			cfg.Backend = throttle
		}
	}
	if err != nil {
		fail(stderr, err)
	}
	cfg.Priority = opts.Value("priority", rebuild.PrioritySequential)
	return cfg, dir, throttle, err == nil
}

// bindBools parses the boolean -o options keys, in order, into dsts.
func bindBools(opts *cli.Options, keys []string, dsts ...*bool) error {
	for i, key := range keys {
		v, err := opts.Bool(key)
		if err != nil {
			return err
		}
		*dsts[i] = v
	}
	return nil
}

func runRebuild(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fbfctl rebuild", flag.ContinueOnError)
	progress := fs.Bool("progress", false, "report per-stripe progress on stderr")
	var opts cli.Options
	fs.Var(&opts, "o", "operator option: check-only, dry-run, scrub, no-verify, priority=..., resume, rate-limit=...")
	cfg, b, _, ok := openService(fs, stderr, args, &opts, "check-only", "dry-run", "scrub", "no-verify", "priority", "resume", "rate-limit")
	if !ok {
		return exitErr
	}
	var resume bool
	if err := bindBools(&opts, []string{"check-only", "dry-run", "scrub", "no-verify", "resume"}, &cfg.CheckOnly, &cfg.DryRun, &cfg.Scrub, &cfg.NoVerify, &resume); err != nil {
		return fail(stderr, err)
	}
	if resume {
		// Journaled mode: progress survives crashes and interrupts, and
		// a rerun with -o resume picks up where this one stopped.
		cfg.JournalPath = filepath.Join(b.Root(), journalName)
	}
	if !cfg.CheckOnly && !cfg.DryRun {
		// SIGINT/SIGTERM request a graceful stop: finish the chunk in
		// flight, sync the journal (if any), summarize, exit 3.
		stop, cancel := notifyStop()
		defer cancel()
		cfg.Stop = stop
	}
	if *progress {
		cfg.Progress = func(p rebuild.Progress) {
			fmt.Fprintf(stderr, " rebuild status : %3d%% complete (stripe %d, %d/%d stripes, %d chunks)\n",
				p.Percent(), p.Stripe, p.StripesDone, p.StripesTotal, p.ChunksRebuilt)
		}
	}

	res, err := rebuild.RunService(cfg)
	if err != nil {
		return fail(stderr, err)
	}
	rep := res.Report
	fmt.Fprintf(stdout, "        scan : %d lost chunks (%d missing, %d corrupt) in %d of %d stripes\n",
		rep.LostChunks(), rep.MissingChunks, rep.CorruptChunks, len(rep.Stripes), cfg.Manifest.Stripes)
	switch {
	case cfg.CheckOnly:
		fmt.Fprintf(stdout, "  check-only : no repair attempted\n")
		if !rep.Clean() {
			return exitDamaged
		}
	case res.Interrupted:
		fmt.Fprintf(stdout, " interrupted : %d of %d damaged stripes repaired (%d chunks rebuilt)\n",
			res.StripesRepaired, len(rep.Stripes), res.ChunksRebuilt)
		if res.JournalOffset > 0 {
			fmt.Fprintf(stdout, "     journal : synced at offset %d; rerun with -o resume to continue\n", res.JournalOffset)
		}
		return exitInterrupted
	case rep.Clean():
		fmt.Fprintf(stdout, "       state : clean\n")
	case cfg.DryRun:
		fmt.Fprintf(stdout, "        plan : strategy=%s priority=%s\n", cfg.Strategy, cfg.Priority)
		fmt.Fprintf(stdout, "     dry-run : would rebuild %d chunks reading %d distinct chunks\n",
			res.PlannedChunks, res.PlannedReads)
	default:
		fmt.Fprintf(stdout, "        plan : strategy=%s priority=%s\n", cfg.Strategy, cfg.Priority)
		if res.ResumedCommits > 0 {
			fmt.Fprintf(stdout, "     resumed : %d journaled commits replayed\n", res.ResumedCommits)
		}
		fmt.Fprintf(stdout, "     rebuilt : %d chunks in %d stripes (%d verified, %d decoded)\n",
			res.ChunksRebuilt, res.StripesRepaired, res.ChunksVerified, res.ChunksDecoded)
		fmt.Fprintf(stdout, "          io : %d reads + %d verify re-reads, %d B written\n",
			res.DiskReads, res.VerifyReads, res.BytesWritten)
		fmt.Fprintf(stdout, "      ladder : %d escalations, %d regenerations\n",
			res.Escalations, res.Regenerations)
		after, err := rebuild.ScanStore(b, cfg.Manifest, cfg.Scrub)
		if err != nil {
			return fail(stderr, err)
		}
		if after.Clean() {
			fmt.Fprintf(stdout, "       state : clean\n")
		} else {
			fmt.Fprintf(stdout, "       state : degraded\n")
		}
	}
	if res.DataLoss {
		fmt.Fprintf(stdout, "        lost : %d chunks unrecoverable (data loss)\n", len(res.Lost))
		return exitDamaged
	}
	return exitOK
}

// runDaemon is the watch mode: scan on an interval, run a journaled
// rebuild whenever damage appears, back off on transient failures, and
// shut down gracefully on SIGINT/SIGTERM.
func runDaemon(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fbfctl daemon", flag.ContinueOnError)
	interval := fs.Duration("interval", rebuild.DefaultInterval, "pause between clean scans")
	listen := fs.String("listen", "", "serve /metrics, /healthz and /progress on this address (e.g. :9920); empty disables telemetry")
	var opts cli.Options
	fs.Var(&opts, "o", "operator option: scrub, no-verify, priority=..., rate-limit=BYTES/S, retries=N, max-scans=N")
	svc, b, throttle, ok := openService(fs, stderr, args, &opts, "scrub", "no-verify", "priority", "rate-limit", "retries", "max-scans")
	if !ok {
		return exitErr
	}
	// Telemetry is armed only with -listen: the instrumented wrapper, the
	// registry and the HTTP server all exist solely on that path, so a
	// plain daemon run takes no listener and no extra work per I/O.
	var dm *telemetry.DaemonMetrics
	var rm *telemetry.RebuildMetrics
	var srv *telemetry.Server
	if *listen != "" {
		reg := telemetry.NewRegistry()
		inst := store.Instrument(svc.Backend)
		svc.Backend = inst
		telemetry.RegisterBackend(reg, inst)
		if throttle != nil {
			telemetry.RegisterThrottle(reg, throttle)
		}
		rm = telemetry.NewRebuildMetrics(reg)
		dm = telemetry.NewDaemonMetrics(reg)
		srv = telemetry.NewServer(reg, func() any { return dm.Progress() })
		addr, err := srv.Start(*listen)
		if err != nil {
			return fail(stderr, err)
		}
		defer srv.Close(time.Second)
		fmt.Fprintf(stderr, "fbfctl daemon: serving telemetry on %s\n", addr)
		if testListenReady != nil {
			testListenReady(addr)
		}
	}
	svc.JournalPath = filepath.Join(b.Root(), journalName)
	svc.Metrics = rm
	if err := bindBools(&opts, []string{"scrub", "no-verify"}, &svc.Scrub, &svc.NoVerify); err != nil {
		return fail(stderr, err)
	}
	retries, err := opts.Int64("retries", rebuild.DefaultRetries)
	if err != nil {
		return fail(stderr, err)
	}
	if opts.Has("retries") && retries == 0 {
		retries = -1 // an explicit 0 means "never retry"
	}
	maxScans, err := opts.Int64("max-scans", 0)
	if err != nil {
		return fail(stderr, err)
	}

	stop, cancel := notifyStop()
	defer cancel()
	if srv != nil {
		// Interpose on the stop channel so /healthz flips to 503 strictly
		// before the daemon sees the shutdown request — supervisors
		// watching readiness observe the graceful drain in progress.
		sig := stop
		drain := make(chan struct{})
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-sig:
				srv.SetHealthy(false)
				close(drain)
			case <-done:
			}
		}()
		stop = drain
	}
	res, err := rebuild.RunDaemon(rebuild.DaemonConfig{
		Service: svc, Interval: *interval,
		Retries: int(retries), MaxScans: int(maxScans),
		Stop:    stop,
		Logf:    func(f string, a ...any) { fmt.Fprintf(stderr, "fbfctl daemon: "+f+"\n", a...) },
		Metrics: dm,
	})
	if res != nil {
		fmt.Fprintf(stdout, "       scans : %d (%d rebuilds, %d retries)\n", res.Scans, res.Rebuilds, res.Retries)
		fmt.Fprintf(stdout, "    repaired : %d chunks in %d stripes\n", res.ChunksRebuilt, res.StripesRepaired)
	}
	if err != nil {
		return fail(stderr, err)
	}
	switch {
	case res.DataLoss:
		fmt.Fprintf(stdout, "        lost : unrecoverable chunks (data loss)\n")
		return exitDamaged
	case res.Interrupted:
		if res.Last != nil && res.Last.Interrupted && res.Last.JournalOffset > 0 {
			fmt.Fprintf(stdout, "     journal : synced at offset %d; the next run resumes\n", res.Last.JournalOffset)
		}
		fmt.Fprintf(stdout, "    shutdown : graceful (signal)\n")
		return exitInterrupted
	}
	return exitOK
}
