package clamr

import (
	"fmt"
	"slices"
	"testing"

	"phirel/internal/bench"
	"phirel/internal/fault"
	"phirel/internal/state"
	"phirel/internal/stats"
)

// tryQuery is q.query(key) with its abort caught.
func tryQuery(q *quadtree, key int) (cell int, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return q.query(key), true
}

// indexVsTree compares the index of c's last build with the descent at
// every in-domain fine coordinate: it reports whether some query aborts,
// and, on a clean build, the first key the two answer differently.
func indexVsTree(c *CLAMR) (aborts bool, diff string) {
	q := &c.qt
	for key := 0; key < c.fine*c.fine; key++ {
		cell, ok := tryQuery(q, key)
		if !ok {
			aborts = true
		} else if q.clean && int(q.at[key]) != cell && diff == "" {
			diff = fmt.Sprintf("key %d: index %d, query %d", key, q.at[key], cell)
		}
	}
	return aborts, diff
}

// site is the live site called name.
func site(c *CLAMR, name string) *state.Buf[int] {
	for _, s := range c.Registry().Live() {
		if s.Name() == name {
			return s.(*state.Buf[int])
		}
	}
	panic("no live site " + name)
}

// treePathAbort runs the tree path's lookups of c's first n cells in order,
// as the phase's lanes do, and returns what the first to abort panics
// with, or "": the panic a run that descends the tree ends with.
func treePathAbort(c *CLAMR, n int) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	live := c.ncell.Load()
	for i := 0; i < n; i++ {
		c.findNeighbours(i, live, false)
	}
	return ""
}

// TestNeighbourIndexMatchesTree holds the index to the descent it stands
// in for. At every tree tick of a golden run the build is clean and the
// index answers every key as query does. After seeded corruptions of the
// cell arrays or of the tree's keys before a build, a clean build's index
// still answers as query does, and a build on which some query aborts is
// never clean. A corruption of the node arrays at the tick leaves the
// build's clean mark as it was, so there the run must descend the tree:
// it must abort with the first abort the tree path meets.
func TestNeighbourIndexMatchesTree(t *testing.T) {
	c := New(DefaultConfig(), 1)
	r, err := bench.NewRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	steps := r.TotalTicks / 4
	t.Run("golden", func(t *testing.T) {
		for step := range steps {
			r.RunInjected(4*step+1, func() {
				if !c.qt.clean {
					t.Errorf("step %d: golden build not clean", step)
				}
				if aborts, diff := indexVsTree(c); aborts || diff != "" {
					t.Errorf("step %d: aborts %v, %s", step, aborts, diff)
				}
			})
		}
	})

	models := []fault.Model{fault.Single, fault.Double, fault.Random, fault.Zero}
	trials := 400
	if testing.Short() {
		trials = 100
	}
	t.Run("mesh", func(t *testing.T) {
		rng := stats.NewRNG(21)
		var unclean, cleanCorrupted int
		for trial := range trials {
			name := []string{"cellI", "cellJ", "cellLevel", "qtKeys"}[trial%4]
			m := models[rng.Intn(len(models))]
			r.RunInjected(4*rng.Intn(steps)+1, func() {
				n, q := c.ncell.Load(), &c.qt
				if !rebuild(c, n, func() { site(c, name).CorruptElem(rng, m, rng.Intn(n)) }) {
					return // the build itself aborted, as the phase's would
				}
				aborts, diff := indexVsTree(c)
				switch {
				case q.clean && aborts:
					t.Errorf("trial %d (%s, %v): a query aborts on a clean build", trial, name, m)
				case diff != "":
					t.Errorf("trial %d (%s, %v): %s", trial, name, m, diff)
				case !q.clean:
					unclean++
				default:
					cleanCorrupted++
				}
			})
		}
		if unclean == 0 || cleanCorrupted == 0 {
			t.Errorf("%d unclean and %d clean builds of corrupted meshes: want some of each", unclean, cleanCorrupted)
		}
	})

	t.Run("nodes", func(t *testing.T) {
		rng := stats.NewRNG(22)
		aborted := 0
		for trial := range trials {
			name := []string{"qtLo", "qtSize", "qtChild", "qtCell"}[trial%4]
			m := models[rng.Intn(len(models))]
			var want string
			res := r.RunInjected(4*rng.Intn(steps)+1, func() {
				nodes := c.qt.n
				if name == "qtChild" {
					nodes *= 4
				}
				site(c, name).CorruptElem(rng, m, rng.Intn(nodes))
				want = treePathAbort(c, c.ncell.Load())
			})
			if want == "" {
				continue
			}
			aborted++
			if res.Status != bench.Crashed || res.PanicMsg != want {
				t.Errorf("trial %d (%s, %v): run ended %v %q, the tree path aborts with %q",
					trial, name, m, res.Status, res.PanicMsg, want)
			}
		}
		if aborted == 0 {
			t.Error("no node corruption made the tree path abort")
		}
	})
}

// rebuild rebuilds c's tree over its first n cells as the tree phase does,
// with corrupt applied between the keys and the build, and reports whether
// the build completed.
func rebuild(c *CLAMR, n int, corrupt func()) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	q := &c.qt
	for i := 0; i < n; i++ {
		q.keys[i] = c.key(i)
	}
	corrupt()
	q.n = 0
	q.clean = true
	q.root = q.build(c.coverage, 0, c.fine*c.fine, 0, n)
	return true
}

// TestSortSkipMatchesMergeSort: zSort with shortcuts leaves keys and perm
// as mergeSort does, for sorted keys (ties included) and unsorted ones and
// any perm, and leaves the scratch untouched exactly when the keys are
// non-decreasing; applyPerm by a perm that identity accepts moves no cell.
func TestSortSkipMatchesMergeSort(t *testing.T) {
	rng := stats.NewRNG(17)
	c := small()
	for trial := range 2000 {
		n := 1 + rng.Intn(64)
		keys, perm := make([]int, n), make([]int, n)
		for i := range keys {
			keys[i] = rng.Intn(1 + rng.Intn(2*n)) // ties are common
		}
		if trial%2 == 0 {
			slices.Sort(keys)
		}
		for i := range perm {
			switch trial % 3 {
			case 0:
				perm[i] = i
			case 1:
				perm[i] = n - 1 - i
			default:
				perm[i] = rng.Intn(3*n) - n // out of range too
			}
		}
		sorted := slices.IsSorted(keys)
		fk, fp := slices.Clone(keys), slices.Clone(perm)
		sentinel := func() []int { return slices.Repeat([]int{-1}, n) }
		zSort(fk, fp, sentinel(), sentinel(), false)
		sk := sentinel()
		zSort(keys, perm, sk, sentinel(), true)
		if !slices.Equal(keys, fk) || !slices.Equal(perm, fp) {
			t.Fatalf("trial %d: skip gives keys %v perm %v, mergeSort %v %v", trial, keys, perm, fk, fp)
		}
		if untouched := slices.Equal(sk, sentinel()); untouched != sorted {
			t.Fatalf("trial %d: keys sorted %v, scratch untouched %v", trial, sorted, untouched)
		}
		if identity(perm) {
			for i := 0; i < n; i++ {
				c.ci.Data[i], c.h.Data[i] = rng.Intn(100), float64(rng.Intn(100))
			}
			ci, h := slices.Clone(c.ci.Data[:n]), slices.Clone(c.h.Data[:n])
			c.applyPerm(perm, n)
			if !slices.Equal(ci, c.ci.Data[:n]) || !slices.Equal(h, c.h.Data[:n]) {
				t.Fatalf("trial %d: identity %v moved cells", trial, perm)
			}
		}
	}
}

// BenchmarkTreePhase times the tree phase's work on the mesh of time step
// 8 of the campaign configuration, near the cell count's peak: the build,
// which fills the index, and every cell's four neighbour lookups, from the
// index and by descending the tree. ns/cell is per mesh cell.
func BenchmarkTreePhase(b *testing.B) {
	c := New(DefaultConfig(), 1)
	c.Reset()
	c.stepEnd.Store(8)
	c.Run(new(bench.Ctx))
	n := c.ncell.Load()
	for _, path := range []struct {
		name  string
		index bool
	}{{"index", true}, {"tree", false}} {
		b.Run(path.name, func(b *testing.B) {
			for range b.N {
				if !rebuild(c, n, func() {}) || !c.qt.clean {
					b.Fatal("step 8's build is not clean")
				}
				for i := 0; i < n; i++ {
					c.findNeighbours(i, n, path.index)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/cell")
		})
	}
}
