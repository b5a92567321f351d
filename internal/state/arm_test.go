package state

import (
	"reflect"
	"testing"

	"phirel/internal/fault"
	"phirel/internal/stats"
)

func TestArmFiresOnNthLoad(t *testing.T) {
	r := stats.NewRNG(1)
	c := NewCell("i", "control", 100)
	def := c.Arm(3, fault.Zero, r)
	for k := 0; k < 3; k++ {
		if c.Load() != 100 {
			t.Fatalf("fired early at load %d", k)
		}
		if def.Fired {
			t.Fatalf("Fired set early at load %d", k)
		}
	}
	if v := c.Load(); v != 0 { // 4th load (delay=3) fires Zero
		t.Fatalf("4th load = %d, want 0", v)
	}
	if !def.Fired || def.Report.Site != "i" || def.Report.Elem != -1 {
		t.Fatalf("deferred report wrong: %+v", def)
	}
	// Subsequent loads are plain.
	c.Store(7)
	if c.Load() != 7 {
		t.Fatal("cell broken after fire")
	}
}

func TestArmZeroDelayFiresImmediately(t *testing.T) {
	r := stats.NewRNG(2)
	c := NewCell("x", "constant", 2.5)
	def := c.Arm(0, fault.Zero, r)
	if v := c.Load(); v != 0 {
		t.Fatalf("load = %v, want 0", v)
	}
	if !def.Fired {
		t.Fatal("not marked fired")
	}
}

func TestDisarm(t *testing.T) {
	r := stats.NewRNG(3)
	c := NewCell("i", "control", 9)
	def := c.Arm(0, fault.Zero, r)
	c.Disarm()
	if c.Load() != 9 {
		t.Fatal("disarmed corruption fired")
	}
	if def.Fired {
		t.Fatal("deferred marked fired after disarm")
	}
}

func TestRegistryDisarmAll(t *testing.T) {
	g := NewRegistry()
	r := stats.NewRNG(4)
	a := NewCell("a", "control", 1)
	b := NewCell[float32]("b", "constant", 1)
	g.Global().Register(a, b)
	a.Arm(0, fault.Zero, r)
	b.Arm(0, fault.Zero, r)
	g.DisarmAll()
	if a.Load() != 1 || b.Load() != 1 {
		t.Fatal("DisarmAll did not cancel pending corruptions")
	}
}

func TestArmReplacesPrevious(t *testing.T) {
	r := stats.NewRNG(5)
	c := NewCell("i", "control", 50)
	old := c.Arm(0, fault.Zero, r)
	def := c.Arm(5, fault.Zero, r)
	// First load must NOT fire (new delay is 5), proving replacement.
	if c.Load() != 50 {
		t.Fatal("replaced arm fired with old delay")
	}
	for k := 0; k < 5; k++ {
		c.Load()
	}
	if c.Load() != 0 && !def.Fired {
		t.Fatal("replacement arm never fired")
	}
	if old.Fired {
		t.Fatal("replaced (stale) arm fired")
	}
}

func TestArmNeverFiredWhenNoLoads(t *testing.T) {
	r := stats.NewRNG(7)
	c := NewCell[float32]("dead", "control", 3)
	def := c.Arm(10, fault.Random, r)
	// No loads happen: a corruption armed on a dead variable stays unfired,
	// which the campaign classifies as masked.
	if def.Fired {
		t.Fatal("fired without loads")
	}
	c.Disarm()
}

func TestF64ArmFires(t *testing.T) {
	r := stats.NewRNG(8)
	c := NewCell("k", "constant", 1.0)
	def := c.Arm(2, fault.Single, r)
	c.Load()
	c.Load()
	v := c.Load()
	if !def.Fired {
		t.Fatal("f64 arm did not fire on 3rd load")
	}
	if v == 1.0 {
		t.Fatal("single bitflip left value unchanged")
	}
	if def.Report.Kind != KindF64 || def.Report.BitsChanged != 1 {
		t.Fatalf("report: %+v", def.Report)
	}
}

// firesOn arms a cell and performs loads one by one (storing an
// ordinal-dependent value before each, as a running loop would) until the
// corruption fires; it returns the firing load's ordinal and the report.
func firesOn(seed uint64, delay int, m fault.Model) (int, Report) {
	c := NewCell("i", "control", 0)
	def := c.Arm(delay, m, stats.NewRNG(seed))
	for n := 1; ; n++ {
		c.Store(n * 7)
		c.Load()
		if def.Fired {
			return n, def.Report
		}
	}
}

// Debited blocks of loads must leave the corruption firing on the same load
// ordinal with the same report as when every load is performed, for any
// interleaving of performed loads, accepted debits and refused debits.
func TestDebitLoadsKeepsFiringOrdinal(t *testing.T) {
	r := stats.NewRNG(42)
	for trial := 0; trial < 500; trial++ {
		delay, m, seed := r.Intn(3000), fault.Models[r.Intn(len(fault.Models))], r.Uint64()
		wantN, wantRep := firesOn(seed, delay, m)
		if wantN != delay+1 {
			t.Fatalf("reference fired on load %d with delay %d", wantN, delay)
		}

		c := NewCell("i", "control", 0)
		bystander := NewCell("j", "control", 0)
		def := c.Arm(delay, m, stats.NewRNG(seed))
		by := bystander.Arm(1000, fault.Zero, stats.NewRNG(1))
		cells := []*Cell[int]{bystander, c}
		n, byLoads := 0, int64(0) // loads performed or debited so far
		for !def.Fired {
			if r.Bernoulli(0.5) {
				n++
				c.Store(n * 7)
				c.Load()
				continue
			}
			block := int64(r.Intn(200))
			left := int64(delay + 1 - n)
			ok := DebitLoads(cells, []int64{1, block})
			if ok != (block < left) {
				t.Fatalf("delay %d after %d loads: debit of %d accepted=%v with %d loads left", delay, n, block, ok, left)
			}
			if ok {
				n += int(block)
				byLoads++
			}
		}
		if n != wantN || !reflect.DeepEqual(def.Report, wantRep) {
			t.Fatalf("delay %d: fired on load %d with %+v, want load %d with %+v", delay, n, def.Report, wantN, wantRep)
		}
		// The bystander was debited once per accepted block and never by a
		// refused one: it fires after exactly the loads it has left.
		for ; byLoads < 1000; byLoads++ {
			bystander.Load()
			if by.Fired {
				t.Fatalf("bystander fired after %d of 1001 loads: a refused debit was applied", byLoads+1)
			}
		}
		if bystander.Load(); !by.Fired {
			t.Fatal("bystander did not fire on its 1001st load: an accepted debit was lost")
		}
	}
}

func TestDebitLoadsEdges(t *testing.T) {
	c := NewCell("i", "control", 9)
	if !DebitLoads([]*Cell[int]{c}, []int64{1 << 40}) {
		t.Fatal("debit on an unarmed cell refused")
	}
	def := c.Arm(4, fault.Zero, stats.NewRNG(1)) // fires on the 5th load
	if DebitLoads([]*Cell[int]{c}, []int64{5}) {
		t.Fatal("debit of exactly the remaining loads accepted: the fire is on the last of them")
	}
	if !DebitLoads([]*Cell[int]{c}, []int64{4}) || def.Fired {
		t.Fatal("debit of all but the firing load refused, or fired")
	}
	if c.Load(); !def.Fired {
		t.Fatal("load after the debit did not fire")
	}
}
