package core

import "repro/internal/bcp"

// WindowTrace is one window's line in a windowed fill's explain
// record: where the window sat in the sequence, how many toggle
// stretches it produced, and what the exact per-window solve achieved.
type WindowTrace struct {
	// Base and Len locate the window: vectors [Base, Base+Len).
	Base int `json:"base"`
	Len  int `json:"len"`
	// Intervals and Forced count the window's BCP intervals and the
	// forced unit toggles among them.
	Intervals int `json:"intervals"`
	Forced    int `json:"forced"`
	// Peak is the window's achieved (optimal-within-window) peak;
	// LowerBound its Algorithm 1 bound — equal by the paper's theorem.
	Peak       int `json:"peak"`
	LowerBound int `json:"lower_bound"`
	// NS is the window's wall time.
	NS int64 `json:"ns"`
}

// Trace is a fill's explain record: per-stage wall time over the
// packed hot path, the BCP bound's probe count, arena reuse, and —
// for windowed fills — one WindowTrace per window. Attach one via
// Options.Trace; a nil sink costs the hot path only a handful of
// predictable branches (pinned by the CI bench gate).
//
// The stage timings partition the fill exactly: PackNS + ScanNS +
// BoundNS + AssignNS + ReconstructNS + UnpackNS + OtherNS == TotalNS,
// because OtherNS is computed as the remainder (instance validation,
// seam stitching, result assembly). Downstream explain surfaces and
// tests rely on that identity.
type Trace struct {
	// Rows and Cols are the input's dimensions (pins × vectors).
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// Shards is the row-scan fan-out the fill resolved to; for a
	// windowed fill, the fan-out of its windows' scans.
	Shards int `json:"shards"`
	// ArenaReused reports whether the fill's scratch came warm from the
	// sync.Pool (for a windowed fill: whether any window's did).
	ArenaReused bool `json:"arena_reused"`

	// Intervals and ForcedUnit mirror Result: total BCP intervals and
	// forced unit toggles.
	Intervals  int `json:"intervals"`
	ForcedUnit int `json:"forced_unit"`
	// Peak and LowerBound mirror Result.
	Peak       int `json:"peak"`
	LowerBound int `json:"lower_bound"`

	// BCP carries the bound's probe count, summed across windows.
	BCP bcp.Stats `json:"bcp"`

	// Stage wall times, nanoseconds. They sum (with OtherNS) to TotalNS.
	PackNS        int64 `json:"pack_ns"`
	ScanNS        int64 `json:"scan_ns"`
	BoundNS       int64 `json:"bound_ns"`
	AssignNS      int64 `json:"assign_ns"`
	ReconstructNS int64 `json:"reconstruct_ns"`
	UnpackNS      int64 `json:"unpack_ns"`
	OtherNS       int64 `json:"other_ns"`
	TotalNS       int64 `json:"total_ns"`

	// Windows is the per-window breakdown of a windowed fill; nil for a
	// monolithic fill.
	Windows []WindowTrace `json:"windows,omitempty"`
}

// StageNS returns the named stage timings in a fixed order, for
// histogram export and explain printing.
func (t *Trace) StageNS() []StageTime {
	return []StageTime{
		{"pack", t.PackNS},
		{"scan", t.ScanNS},
		{"bound", t.BoundNS},
		{"assign", t.AssignNS},
		{"reconstruct", t.ReconstructNS},
		{"unpack", t.UnpackNS},
		{"other", t.OtherNS},
	}
}

// StageTime is one named stage duration of a fill trace.
type StageTime struct {
	Stage string
	NS    int64
}

// seal closes a trace's accounting: TotalNS is fixed and OtherNS
// becomes the remainder not attributed to a named stage, making the
// stage sum exact by construction.
func (t *Trace) seal(totalNS int64) {
	t.TotalNS = totalNS
	t.OtherNS = totalNS - (t.PackNS + t.ScanNS + t.BoundNS + t.AssignNS + t.ReconstructNS + t.UnpackNS)
}

// merge folds a child fill's trace (one window) into the aggregate.
func (t *Trace) merge(child *Trace) {
	t.Shards = child.Shards
	t.ArenaReused = t.ArenaReused || child.ArenaReused
	t.BCP.Add(child.BCP)
	t.PackNS += child.PackNS
	t.ScanNS += child.ScanNS
	t.BoundNS += child.BoundNS
	t.AssignNS += child.AssignNS
	t.ReconstructNS += child.ReconstructNS
	t.UnpackNS += child.UnpackNS
}
