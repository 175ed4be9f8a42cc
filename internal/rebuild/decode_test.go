package rebuild

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"fbf/internal/chunk"
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/gf2"
	"fbf/internal/grid"
	"fbf/internal/store"
)

// liar serves one surviving address with a payload byte flipped after the
// store's own CRC check has passed — a chunk that is valid and wrong —
// and remembers how often it lied and which addresses were written.
type liar struct {
	store.Backend
	addr  store.Addr
	lies  int
	wrote map[store.Addr]bool
}

func (l *liar) ReadChunk(a store.Addr, dst []byte) (int, error) {
	n, err := l.Backend.ReadChunk(a, dst)
	if err == nil && a == l.addr {
		dst[n/2] ^= 0x40
		l.lies++
	}
	return n, err
}

func (l *liar) WriteChunk(a store.Addr, data []byte) error {
	l.wrote[a] = true
	return l.Backend.WriteChunk(a, data)
}

func (l *liar) writesTo(stripe int) (n int) {
	for a := range l.wrote {
		if a.Stripe == stripe {
			n++
		}
	}
	return n
}

// TestLyingSurvivorFailsBeforeFirstWrite makes every survivor of a
// decoder-path stripe lie in turn. With redundancy left — two dead disks
// of a distance-4 code leave one detectable error — the zero test must
// fail the stripe before its first write: an error naming the stripe, no
// WriteChunk to it, no commit record for it, with and without a journal.
// (Diffing the rebuilt cells against a second sum of the same equation,
// as the pass did before, wrote such lies back and counted them
// verified.) With a parity disk among the dead (the third row) some
// chains lose nothing, and some lies show only there: the zero test sums
// those chains too. The last row documents the limit: at three dead
// disks the code's redundancy is spent, the run succeeds and the bytes
// are wrong.
//
// The chain-major rows put the paper's damage — three chunks of one disk —
// into the same stripe, under every code and both single-chain
// strategies. That stripe passes its zero test as a whole too, before its
// first write: every lie the engine reads must end the run with an error
// naming the stripe and a chain, no WriteChunk to the stripe and no
// commit record for it. The last of them documents the limit there: a
// STAR diagonal-parity cell sits on one chain only, nothing independent
// exists to test it against, and a lie on that chain is written and
// counted verified.
func TestLyingSurvivorFailsBeforeFirstWrite(t *testing.T) {
	const seed, stripe = 23, 1
	for _, tc := range []struct {
		code      string
		disks     []int
		detection bool
	}{
		{"star", []int{0, 2}, true},
		{"triplestar", []int{0, 1}, true},
		{"tip", []int{0, 5}, true},
		{"tip", []int{1, 3, 4}, false},
	} {
		for _, journaled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s-kill%v-journal=%v", tc.code, tc.disks, journaled), func(t *testing.T) {
				m := testManifest(tc.code, 5, 2, 64)
				dead := map[int]bool{}
				for _, d := range tc.disks {
					dead[d] = true
				}
				accepted, survivors := 0, 0
				for disk := 0; disk < m.Disks; disk++ {
					for row := 0; row < m.Rows && !dead[disk]; row++ {
						survivors++
						b := initMem(t, m, seed)
						for d := range dead {
							killDisk(t, b, d)
						}
						l := &liar{Backend: b, addr: AddrOf(stripe, grid.Coord{Row: row, Col: disk}), wrote: map[store.Addr]bool{}}
						cfg := ServiceConfig{Backend: l, Manifest: m}
						if journaled {
							cfg.JournalPath = filepath.Join(t.TempDir(), "rebuild.journal")
						}
						res, err := RunService(cfg)
						if !tc.detection {
							if err != nil {
								t.Fatalf("survivor %v lying: %v", l.addr, err)
							}
							if want := len(tc.disks) * m.Rows * m.Stripes; res.ChunksRebuilt != want || res.ChunksVerified != want {
								t.Fatalf("survivor %v lying: rebuilt %d, verified %d, want %d", l.addr, res.ChunksRebuilt, res.ChunksVerified, want)
							}
							if firstWrongChunk(t, b, m, seed) == nil {
								t.Fatalf("survivor %v lying: every rebuilt byte is right; the lie reached no cell", l.addr)
							}
							accepted++
							continue
						}
						if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("stripe %d", stripe)) {
							t.Fatalf("survivor %v lying: err = %v, want one naming stripe %d", l.addr, err, stripe)
						}
						if n := l.writesTo(stripe); n != 0 {
							t.Fatalf("survivor %v lying: %d chunks of the stripe written before it failed", l.addr, n)
						}
						if journaled {
							for a := range replayJournal(t, cfg.JournalPath).Commits {
								if a.Stripe == stripe {
									t.Fatalf("survivor %v lying: commit record for %v", l.addr, a)
								}
							}
						}
					}
				}
				if !tc.detection {
					t.Logf("%s, disks %v dead: %d of %d single lying survivors rebuilt into wrong bytes and counted verified — no redundancy is left to catch them", tc.code, tc.disks, accepted, survivors)
				}
			})
		}
	}

	type chainMajor struct {
		code      string
		cells     []grid.Coord
		strategy  core.Strategy
		detection bool
	}
	var rows []chainMajor
	for _, code := range []string{"star", "triplestar", "tip", "hdd1"} {
		for _, strategy := range []core.Strategy{core.StrategyTypical, core.StrategyLooped} {
			rows = append(rows, chainMajor{code, []grid.Coord{{Row: 0, Col: 1}, {Row: 1, Col: 1}, {Row: 2, Col: 1}}, strategy, true})
		}
	}
	rows = append(rows, chainMajor{"star", []grid.Coord{{Row: 0, Col: 6}}, core.StrategyTypical, false})
	for _, tc := range rows {
		for _, journaled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s-cells%v-%v-journal=%v", tc.code, tc.cells, tc.strategy, journaled), func(t *testing.T) {
				m := testManifest(tc.code, 5, 2, 64)
				isLost := map[grid.Coord]bool{}
				for _, c := range tc.cells {
					isLost[c] = true
				}
				accepted, caught, survivors := 0, 0, 0
				for disk := 0; disk < m.Disks; disk++ {
					for row := 0; row < m.Rows; row++ {
						if isLost[grid.Coord{Row: row, Col: disk}] {
							continue
						}
						survivors++
						b := initMem(t, m, seed)
						loseCells(t, b, stripe, tc.cells)
						l := &liar{Backend: b, addr: AddrOf(stripe, grid.Coord{Row: row, Col: disk}), wrote: map[store.Addr]bool{}}
						cfg := ServiceConfig{Backend: l, Manifest: m, Strategy: tc.strategy}
						if journaled {
							cfg.JournalPath = filepath.Join(t.TempDir(), "rebuild.journal")
						}
						res, err := RunService(cfg)
						switch {
						case err == nil && l.lies > 0:
							if firstWrongChunk(t, b, m, seed) == nil {
								t.Errorf("survivor %v lying: read %d times and the run succeeded with every byte right", l.addr, l.lies)
							}
							if want := len(tc.cells); res.ChunksRebuilt != want || res.ChunksVerified != want {
								t.Errorf("survivor %v lying: rebuilt %d, verified %d, want %d", l.addr, res.ChunksRebuilt, res.ChunksVerified, want)
							}
							accepted++
						case err == nil:
							// Neither a repair chain nor a check chain holds it.
							checkAgainstGroundTruth(t, b, m, seed)
						default:
							if l.lies == 0 {
								t.Errorf("survivor %v never read: %v", l.addr, err)
							}
							if !strings.Contains(err.Error(), fmt.Sprintf("stripe %d: chain ", stripe)) {
								t.Errorf("survivor %v lying: err = %v, want one naming stripe %d and a chain", l.addr, err, stripe)
							}
							if n := l.writesTo(stripe); n != 0 {
								t.Errorf("survivor %v lying: %d chunks of the stripe written before it failed", l.addr, n)
							}
							if journaled {
								for a := range replayJournal(t, cfg.JournalPath).Commits {
									if a.Stripe == stripe {
										t.Errorf("survivor %v lying: commit record for %v", l.addr, a)
									}
								}
							}
							caught++
						}
					}
				}
				switch {
				case tc.detection && (accepted > 0 || caught == 0):
					t.Fatalf("%s, cells %v lost, %v: %d of %d single lying survivors rebuilt into wrong bytes and counted verified, %d failed the run", tc.code, tc.cells, tc.strategy, accepted, survivors, caught)
				case !tc.detection && (accepted == 0 || caught > 0):
					t.Fatalf("%s, cells %v lost: %d lies accepted, %d caught; the fixture has a second chain after all", tc.code, tc.cells, accepted, caught)
				case !tc.detection:
					t.Logf("%s, cells %v lost: %d of %d single lying survivors rebuilt into wrong bytes and counted verified — the cell's repair chain is its only chain", tc.code, tc.cells, accepted, survivors)
				}
			})
		}
	}

	// The sweep rows widen the chain-major rows to every partial stripe
	// error of one to three chunks whose cells all sit on a second layout
	// chain (so a lie on a repair chain has something independent to
	// fail), under every code, with every survivor lying in turn: the run
	// fails naming the stripe before its first write, or the store ends
	// byte-exact. Each error is first rebuilt with no liar, which must
	// succeed byte-exact, so a check that fails honest bytes cannot pass
	// for a catch. p=5 runs every strategy; p=7 runs the paper's looped
	// only, which keeps it to about a third of the time all three take.
	for _, p := range []int{5, 7} {
		strategies := []core.Strategy{core.StrategyTypical, core.StrategyLooped, core.StrategyGreedy}
		if p == 7 {
			strategies = []core.Strategy{core.StrategyLooped}
		}
		for _, code := range []string{"star", "triplestar", "tip", "hdd1"} {
			for _, strategy := range strategies {
				t.Run(fmt.Sprintf("sweep-p%d-%s-%v", p, code, strategy), func(t *testing.T) {
					const stripe = 0
					m := testManifest(code, p, 1, 64)
					layout := codes.MustNew(code, p).Layout()
					repair := func(lost []grid.Coord, lie store.Addr) (*liar, error) {
						b := initMem(t, m, seed)
						loseCells(t, b, stripe, lost)
						l := &liar{Backend: b, addr: lie, wrote: map[store.Addr]bool{}}
						_, err := RunService(ServiceConfig{Backend: l, Manifest: m, Strategy: strategy})
						return l, err
					}
					patterns, runs, caught := 0, 0, 0
					for disk := 0; disk < m.Disks; disk++ {
						for size := 1; size <= 3; size++ {
						rows:
							for row := 0; row+size <= m.Rows; row++ {
								e := core.PartialStripeError{Stripe: stripe, Disk: disk, Row: row, Size: size}
								lost := e.LostCells()
								isLost := map[grid.Coord]bool{}
								for _, c := range lost {
									if len(layout.ChainsThrough(c)) < 2 {
										continue rows
									}
									isLost[c] = true
								}
								patterns++
								if l, err := repair(lost, store.Addr{Stripe: -1}); err != nil || firstWrongChunk(t, l.Backend, m, seed) != nil {
									t.Fatalf("%v with no liar: err = %v, or a chunk is wrong", e, err)
								}
								for col := 0; col < m.Disks; col++ {
									for r := 0; r < m.Rows; r++ {
										if isLost[grid.Coord{Row: r, Col: col}] {
											continue
										}
										runs++
										l, err := repair(lost, AddrOf(stripe, grid.Coord{Row: r, Col: col}))
										if err == nil {
											if a := firstWrongChunk(t, l.Backend, m, seed); a != nil {
												t.Fatalf("%v, survivor %v lying (read %d times): the run succeeded and chunk %v is wrong", e, l.addr, l.lies, *a)
											}
											continue
										}
										if l.lies == 0 || !strings.Contains(err.Error(), fmt.Sprintf("stripe %d", stripe)) {
											t.Fatalf("%v, survivor %v lying (read %d times): err = %v, want one naming stripe %d after reading the lie", e, l.addr, l.lies, err, stripe)
										}
										if n := l.writesTo(stripe); n != 0 {
											t.Fatalf("%v, survivor %v lying: %d chunks of the stripe written before it failed", e, l.addr, n)
										}
										caught++
									}
								}
							}
						}
					}
					if caught == 0 {
						t.Fatalf("%d errors, %d lying survivors, none caught: the sweep proves nothing", patterns, runs)
					}
					t.Logf("%d errors × single lying survivors: %d runs, %d failed before a write, the rest byte-exact", patterns, runs, caught)
				})
			}
		}
	}
}

// heldWrites keeps what a pass writes instead of storing it, so the
// stripe stays damaged for the next pass.
type heldWrites struct {
	store.Backend
	held map[store.Addr][]byte
}

func (h *heldWrites) WriteChunk(a store.Addr, data []byte) error {
	h.held[a] = append([]byte(nil), data...)
	return nil
}

// killedPass kills the given disks of b, a fresh one-stripe array of
// manifest m, and returns a service over b with stripe 0's plan and its
// decode pass, built but not run.
func killedPass(t *testing.T, b store.Backend, m store.ArrayManifest, disks []int) (*service, *schemePlan, *decodePass) {
	t.Helper()
	for _, d := range disks {
		killDisk(t, b, d)
	}
	cfg := ServiceConfig{Backend: b, Manifest: m, Strategy: core.StrategyLooped}
	cfg.defaults()
	report, err := ScanStore(b, m, false)
	if err != nil {
		t.Fatal(err)
	}
	s := newService(&cfg, codes.MustNew(m.Code, m.P), &ServiceResult{Report: report}, nil)
	plan, err := s.planFor(0, report.Stripes[0].Lost())
	if err != nil {
		t.Fatal(err)
	}
	return s, plan, plan.pass
}

// TestDecodePassCounts pins the chunk-sized XOR passes one stripe's
// decode pass makes at p=13 with disks 1, 5 and 9 dead, verify on:
// every source folded into its chains, the schedule's row additions, the
// copies taken before them and the rebuilt cells folded back for the
// zero test. The rows are DESIGN.md §12's table, which must hold them
// verbatim.
func TestDecodePassCounts(t *testing.T) {
	want := []struct {
		code, name                                     string
		passes, sources, additions, copies, foldedBack int
	}{
		{"tip", "TIP", 619, 354, 127, 36, 102},
		{"hdd1", "HDD1", 620, 354, 128, 36, 102},
		{"triplestar", "Triple-Star", 637, 366, 133, 36, 102},
		{"star", "STAR", 1031, 594, 227, 36, 174},
	}
	var table strings.Builder
	for _, w := range want {
		m := testManifest(w.code, 13, 1, 64)
		_, _, pass := killedPass(t, initMem(t, m, 1), m, []int{1, 5, 9})
		sources, foldedBack := 0, 0
		for _, src := range pass.sources {
			sources += len(src.folds)
		}
		for _, ch := range pass.checks {
			foldedBack += len(ch.cells)
		}
		got := []int{sources + len(pass.ops) + len(pass.snaps) + foldedBack, sources, len(pass.ops), len(pass.snaps), foldedBack}
		if exp := []int{w.passes, w.sources, w.additions, w.copies, w.foldedBack}; fmt.Sprint(got) != fmt.Sprint(exp) {
			t.Errorf("%s: passes, sources, row additions, copies, folded back = %v, want %v", w.name, got, exp)
		}
		fmt.Fprintf(&table, "| %s | %d | %d | %d | %d | %d |\n", w.name, got[0], got[1], got[2], got[3], got[4])
		if w.code == "tip" && (len(pass.ops) > 170 || got[0] > 670) {
			t.Errorf("TIP: %d row additions and %d passes, want at most 170 and 670", len(pass.ops), got[0])
		}
	}
	requireInDesign(t, table.String())
}

// requireInDesign fails unless DESIGN.md holds the rendered table rows
// verbatim but for each line's indentation, and prints them for pasting
// when it does not.
func requireInDesign(t *testing.T, rows string) {
	t.Helper()
	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(regexp.MustCompile(`(?m)^[ \t]+`).ReplaceAllString(string(design), ""), rows) {
		t.Errorf("DESIGN.md does not hold these table rows:\n%s", rows)
	}
}

// TestDecodePassMutationsFailZeroTest breaks the pass itself — one
// recorded row addition dropped, two outputs swapped, every choice in
// turn — on a stripe of honest survivors. The zero test takes its chain
// members from the layout, not from the schedule, so a mutant that would
// write a wrong byte must fail there, before any write, and not only in
// a comparison with ground truth. On an all-decoder plan that is every
// mutant; in the mixed plan a mutant that changes no output (a row
// addition that only fed the pivot row of a cell taken from its chain's
// snapshot instead) must write exactly the true bytes. The sparse
// schedule adds nothing into such a row — it holds its cell alone from
// the start — so today every mutant of the mixed plan fails too.
func TestDecodePassMutationsFailZeroTest(t *testing.T) {
	const seed = 29
	for _, tc := range []struct {
		code  string
		disks []int
		mixed bool
	}{{"tip", []int{1, 3, 4}, false}, {"star", []int{0, 2}, false}, {"triplestar", []int{0, 1}, true}} {
		t.Run(fmt.Sprintf("%s-kill%v", tc.code, tc.disks), func(t *testing.T) {
			m := testManifest(tc.code, 5, 1, 64)
			code := codes.MustNew(m.Code, m.P)
			truth := code.MaterializeStripe(StripeSeed(seed, 0), m.ChunkSize)
			held := &heldWrites{Backend: initMem(t, m, seed)}
			s, plan, pass := killedPass(t, held, m, tc.disks)
			failed, harmless := 0, 0
			run := func(what string) {
				t.Helper()
				held.held = map[store.Addr][]byte{}
				verified := s.m.ChunksVerified.Value()
				f := &flight{stripe: 0, plan: plan}
				f.esc, f.err = s.evaluate(f)
				esc, err := s.land(f)
				if esc != nil {
					t.Fatalf("%s: escalated %v", what, esc)
				}
				if err != nil {
					if !strings.Contains(err.Error(), "stripe 0") || !strings.Contains(err.Error(), "zero") || len(held.held) != 0 || s.m.ChunksVerified.Value() != verified {
						t.Fatalf("%s: err = %v with %d chunks written; want the stripe's zero test to fail before any", what, err, len(held.held))
					}
					failed++
					return
				}
				if tc.mixed {
					harmless++
				} else {
					t.Fatalf("%s: the zero test passed", what)
				}
				for a, data := range held.held {
					if !chunk.Chunk(data).Equal(truth[code.CellIndex(grid.Coord{Row: a.Chunk, Col: a.Disk})]) {
						t.Fatalf("%s: the zero test passed and %v was written wrong", what, a)
					}
				}
			}
			ops := pass.ops
			for k := range ops {
				pass.ops = append(append([]gf2.RowOp(nil), ops[:k]...), ops[k+1:]...)
				run(fmt.Sprintf("without operation %d of %d (%+v)", k, len(ops), ops[k]))
			}
			pass.ops = ops
			for i := range pass.outputs {
				for j := i + 1; j < len(pass.outputs); j++ {
					pass.outputs[i], pass.outputs[j] = pass.outputs[j], pass.outputs[i]
					run(fmt.Sprintf("outputs of %v and %v swapped", plan.scheme.Selected[i].Lost, plan.scheme.Selected[j].Lost))
					pass.outputs[i], pass.outputs[j] = pass.outputs[j], pass.outputs[i]
				}
			}
			kept := 0
			for _, sel := range plan.scheme.Selected {
				if !sel.Decoded {
					kept++
				}
			}
			if failed == 0 || tc.mixed != (kept > 0) {
				t.Fatalf("%d mutants failed the zero test, %d changed no output; %d cells kept their chain", failed, harmless, kept)
			}
			t.Logf("%d mutants failed the zero test, %d changed no output", failed, harmless)
		})
	}
}
