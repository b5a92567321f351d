package fleet

// Range algebra over TrialRange — the primitives the shard planners and the
// merge's tiling check share. All operations treat a range as the half-open
// interval [Offset, Offset+N); an empty range (N == 0) is covered by
// everything.

// End returns the exclusive upper bound of the range.
func (r TrialRange) End() int { return r.Offset + r.N }

// Empty reports whether the range covers no trials.
func (r TrialRange) Empty() bool { return r.N <= 0 }

// Covers reports whether every trial of o lies inside r. An empty o is
// covered by any range (there is nothing to cover).
func (r TrialRange) Covers(o TrialRange) bool {
	if o.Empty() {
		return true
	}
	return r.Offset <= o.Offset && o.End() <= r.End()
}

// Split cuts r into count balanced contiguous sub-ranges (sizes differ by
// at most one, empty sub-ranges possible when r.N < count) and returns the
// k-th.
func (r TrialRange) Split(k, count int) TrialRange {
	lo, hi := r.N*k/count, r.N*(k+1)/count
	return TrialRange{Offset: r.Offset + lo, N: hi - lo}
}
