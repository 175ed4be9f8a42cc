package gf2

import (
	"reflect"
	"testing"
)

// FuzzSolve fuzzes the symbolic GF(2) solver that serves as the
// independent decode oracle for every erasure code in the repository.
// Equations are decoded from the byte stream (low bits pick a symbol,
// the high bit terminates the current equation); the unknown set comes
// from a bitmask. For every solved unknown the returned expression must
// (a) reference only known symbols and (b) lie in the row space of the
// equations — checked by rank equality, which is itself independent of
// the elimination order Solve used. Schedule must return Solve's Terms,
// Spare and unsolved list, and its sparse row additions must be that
// solution as a program: replayed on the equations themselves they leave
// {u} ∪ Terms[u] in row Row[u] and no unknown in any Spare row, and
// replayed on unit vectors, one bit per equation, every Row and Spare
// buffer is the same sum of equations Solve's pivot-order elimination
// forms (checkSameCombinations).
func FuzzSolve(f *testing.F) {
	f.Add(6, uint64(0b000101), []byte{0x00, 0x01, 0x82, 0x02, 0x03, 0x84, 0x04, 0x05, 0x80})
	f.Add(4, uint64(0b1111), []byte{0x00, 0x81, 0x02, 0x83})
	f.Add(8, uint64(0b10000001), []byte{0x00, 0x00, 0x87, 0x01, 0x02, 0x03, 0x84})
	f.Fuzz(func(t *testing.T, symbols int, unknownMask uint64, data []byte) {
		if symbols < 1 || symbols > 16 {
			t.Skip()
		}
		var unknowns []int
		for u := 0; u < symbols; u++ {
			if unknownMask&(1<<uint(u)) != 0 {
				unknowns = append(unknowns, u)
			}
		}
		sys := NewSystem(symbols)
		var equations [][]int
		cur := []int{}
		for _, b := range data {
			cur = append(cur, int(b&0x7F)%symbols)
			if b&0x80 != 0 {
				sys.AddEquation(cur)
				equations = append(equations, cur)
				cur = []int{}
				if len(equations) >= 24 {
					break
				}
			}
		}
		if len(cur) > 0 {
			sys.AddEquation(cur)
			equations = append(equations, cur)
		}

		sol, unsolved := sys.Solve(unknowns)
		if sol.Ops != nil || sol.Row != nil {
			t.Fatalf("Solve recorded %d row additions nobody replays", len(sol.Ops))
		}
		sched, schedUnsolved := sys.Schedule(unknowns)
		if !reflect.DeepEqual(sched.Terms, sol.Terms) || !reflect.DeepEqual(sched.Spare, sol.Spare) || !reflect.DeepEqual(schedUnsolved, unsolved) {
			t.Fatalf("Schedule solved %v (spare %v, unsolved %v), Solve %v (spare %v, unsolved %v)", sched.Terms, sched.Spare, schedUnsolved, sol.Terms, sol.Spare, unsolved)
		}
		checkSameCombinations(t, equations, symbols, unknowns, sched)
		if got, want := sys.Equations(), len(equations); got != want {
			t.Fatalf("system has %d equations, want %d", got, want)
		}
		if sys.Solvable(unknowns) != (len(unsolved) == 0) {
			t.Fatalf("Solvable disagrees with Solve's unsolved list %v", unsolved)
		}

		// Solved and unsolved must partition the unknown set.
		seen := make(map[int]bool, len(unknowns))
		for u := range sol.Terms {
			seen[u] = true
		}
		for _, u := range unsolved {
			if seen[u] {
				t.Fatalf("unknown %d is both solved and unsolved", u)
			}
			seen[u] = true
		}
		if len(seen) != len(unknowns) {
			t.Fatalf("solved+unsolved covers %d unknowns, want %d", len(seen), len(unknowns))
		}
		for _, u := range unknowns {
			if !seen[u] {
				t.Fatalf("unknown %d missing from both solved and unsolved", u)
			}
		}

		isUnknown := make(map[int]bool, len(unknowns))
		for _, u := range unknowns {
			isUnknown[u] = true
		}

		rows := NewMatrix(len(equations), symbols)
		for r, eq := range equations {
			for _, sym := range eq {
				rows.Flip(r, sym)
			}
		}
		for _, op := range sched.Ops {
			rows.XORRows(op.Dst, op.Src)
		}
		if len(sched.Row) != len(sol.Terms) {
			t.Fatalf("%d solved unknowns, %d rows named", len(sol.Terms), len(sched.Row))
		}
		for u, terms := range sol.Terms {
			want := NewMatrix(1, symbols)
			want.Flip(0, u)
			for _, sym := range terms {
				want.Flip(0, sym)
			}
			for sym := 0; sym < symbols; sym++ {
				if rows.Get(sched.Row[u], sym) != want.Get(0, sym) {
					t.Fatalf("replayed row %d does not read unknown %d = XOR of %v (symbol %d)", sched.Row[u], u, terms, sym)
				}
			}
		}
		seenRow := make(map[int]bool, len(sol.Spare))
		for _, r := range sol.Spare {
			if seenRow[r] {
				t.Fatalf("spare row %d listed twice", r)
			}
			seenRow[r] = true
			for _, u := range unknowns {
				if rows.Get(r, u) {
					t.Fatalf("spare row %d still holds unknown %d", r, u)
				}
			}
		}
		// Row space of the original equations (repeated symbols cancel,
		// matching GF(2) semantics).
		base := NewMatrix(len(equations), symbols)
		for r, eq := range equations {
			for _, sym := range eq {
				base.Flip(r, sym)
			}
		}
		baseRank := base.Rank(symbols)
		for u, terms := range sol.Terms {
			for _, sym := range terms {
				if isUnknown[sym] {
					t.Fatalf("unknown %d solved in terms of unknown %d", u, sym)
				}
			}
			// The identity u XOR terms... = 0 must be a linear combination
			// of the input equations: appending its vector must not raise
			// the rank.
			ext := NewMatrix(len(equations)+1, symbols)
			for r, eq := range equations {
				for _, sym := range eq {
					ext.Flip(r, sym)
				}
			}
			ext.Flip(len(equations), u)
			for _, sym := range terms {
				ext.Flip(len(equations), sym)
			}
			if ext.Rank(symbols) != baseRank {
				t.Fatalf("solution for unknown %d (terms %v) is not implied by the equations", u, terms)
			}
		}
	})
}

// checkSameCombinations replays a schedule's row additions on unit
// vectors, one bit per equation, and requires every Row buffer and every
// Spare buffer to be exactly the set of equations the pivot-order
// Gauss-Jordan elimination (Solve's) sums into that unknown's pivot row
// or that spare row, computed here on [unknown coefficients | identity].
func checkSameCombinations(t *testing.T, equations [][]int, symbols int, unknowns []int, sched *Solution) {
	t.Helper()
	n, nu := len(equations), len(unknowns)
	col := make(map[int]int, nu)
	for i, u := range unknowns {
		col[u] = i
	}
	ref := NewMatrix(n, nu+n)
	for r, eq := range equations {
		for _, sym := range eq {
			if c, ok := col[sym]; ok {
				ref.Flip(r, c)
			}
		}
		ref.Flip(r, nu+r)
	}
	pivots, rows := ref.eliminate(nu)
	refRow := func(pos, eq int) bool { return ref.Get(pos, nu+eq) }

	got := NewMatrix(n, n)
	for r := 0; r < n; r++ {
		got.Flip(r, r)
	}
	for _, op := range sched.Ops {
		got.XORRows(op.Dst, op.Src)
	}
	same := func(pos, buf int) bool {
		for eq := 0; eq < n; eq++ {
			if refRow(pos, eq) != got.Get(buf, eq) {
				return false
			}
		}
		return true
	}
	for pos, c := range pivots {
		buf, solved := sched.Row[unknowns[c]]
		if solved && !same(pos, buf) {
			t.Fatalf("buffer %d of unknown %d is not the sum of equations Solve's elimination forms", buf, unknowns[c])
		}
	}
	for pos := len(pivots); pos < n; pos++ {
		if !same(pos, rows[pos]) {
			t.Fatalf("spare buffer %d is not the sum of equations Solve's elimination forms", rows[pos])
		}
	}
}
