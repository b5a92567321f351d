package distrib

import (
	"sort"
	"sync"
	"time"
)

// watchdog detects straggler shards from their progress streams. Every
// report becomes a fractional-progress sample (done/total, so shards with
// different amounts of remaining work compare fairly), each shard's rate is
// fraction gained per second since its first sample measured against *now*
// — a stalled shard's rate decays as wall-clock advances even though no new
// samples arrive — and a shard is lagging when its rate falls below factor
// times the fleet median after at least minObserve of observation. The
// clock is a parameter of observe/lagging, never read internally, so unit
// tests drive the watchdog with a fake clock.
type watchdog struct {
	mu         sync.Mutex
	factor     float64
	minObserve time.Duration
	shards     map[int]*wdShard
}

type wdShard struct {
	started     bool
	excluded    bool
	firstAt     time.Time
	first, last float64
}

func newWatchdog(factor float64, minObserve time.Duration) *watchdog {
	return &watchdog{factor: factor, minObserve: minObserve, shards: map[int]*wdShard{}}
}

// watch registers a shard as subject to straggler detection. Reports for
// unwatched keys (re-split children, cached prefix shards) are ignored.
func (w *watchdog) watch(key int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.shards[key]; !ok {
		w.shards[key] = &wdShard{}
	}
}

// observe folds one progress report in. A fraction that regresses marks a
// relaunched worker: the observation window restarts so a resumed attempt
// is measured on its own progress, not punished for the crash.
func (w *watchdog) observe(key, done, total int, now time.Time) {
	if total <= 0 {
		return
	}
	frac := float64(done) / float64(total)
	w.mu.Lock()
	defer w.mu.Unlock()
	s, ok := w.shards[key]
	if !ok || s.excluded {
		return
	}
	if !s.started || frac < s.last {
		s.started = true
		s.firstAt = now
		s.first = frac
	}
	s.last = frac
}

// exclude removes a shard from consideration — finished, or already
// stolen — so it neither drags the median nor gets flagged twice.
func (w *watchdog) exclude(key int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if s, ok := w.shards[key]; ok {
		s.excluded = true
	}
}

// lagging returns the shards (ascending) whose progress rate has fallen
// below factor × the fleet median. It never flags anything until at least
// two shards are observable — with one shard there is no fleet to lag —
// and a shard only becomes eligible after minObserve of observation, so a
// brief scheduling hiccup right after launch cannot trigger a steal.
func (w *watchdog) lagging(now time.Time) []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	type cand struct {
		key      int
		rate     float64
		eligible bool
	}
	var rates []float64
	var cands []cand
	for key, s := range w.shards {
		if s.excluded || !s.started {
			continue
		}
		elapsed := now.Sub(s.firstAt)
		if elapsed <= 0 {
			continue
		}
		rate := (s.last - s.first) / elapsed.Seconds()
		rates = append(rates, rate)
		cands = append(cands, cand{key: key, rate: rate, eligible: elapsed >= w.minObserve})
	}
	if len(rates) < 2 {
		return nil
	}
	sort.Float64s(rates)
	median := rates[len(rates)/2]
	if median <= 0 {
		return nil
	}
	var out []int
	for _, c := range cands {
		if c.eligible && c.rate < w.factor*median {
			out = append(out, c.key)
		}
	}
	sort.Ints(out)
	return out
}
