// Package fold implements the analysis operations of the query layer
// (paper §5.2 — integrals, derivatives, aggregates, downsampling) as
// incremental single-pass folds. A fold consumes a time-sorted series
// chunk by chunk and holds O(1) state (O(buckets) for downsampling),
// so a month-long summary over a streamed read never materializes the
// series — and the same state can be computed server-side on a storage
// node and shipped to the coordinator as one small message
// (aggregation pushdown).
//
// Every state carries an order-sensitive fingerprint of the readings it
// consumed, which lets a replicated cluster detect whether two replicas
// folded identical data without shipping the data itself.
//
// NaN/Inf handling: non-finite values are skipped by every fold (they
// would otherwise poison sums, means and bucket averages permanently)
// and counted in Skipped. Empty input is not an error at this layer:
// a fold over zero readings reports Count() == 0 and callers decide
// how to surface it.
package fold

import (
	"fmt"
	"math"

	"dcdb/internal/core"
)

// Op identifies a fold operation. The numbering is part of the RPC
// wire format (aggregation pushdown requests and encoded states).
type Op uint8

const (
	// OpSummary computes count/min/max/mean plus the first and last
	// readings of the series.
	OpSummary Op = 1
	// OpIntegral computes the trapezoid-rule time integral in
	// value-units × seconds.
	OpIntegral Op = 2
	// OpDownsample reduces the series to at most Buckets points by
	// averaging equal time buckets over [From, To].
	OpDownsample Op = 3
)

// String names the op the way the CLI flags spell it.
func (o Op) String() string {
	switch o {
	case OpSummary:
		return "summary"
	case OpIntegral:
		return "integral"
	case OpDownsample:
		return "downsample"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Spec fully describes one fold request: the operation, the queried
// time range (which fixes the downsample bucket grid — every replica
// must bucket identically for states to merge), and the downsample
// point budget.
type Spec struct {
	Op       Op
	From, To int64
	// Buckets is the maximum number of output points of OpDownsample;
	// ignored by the other ops.
	Buckets int
}

// maxBuckets bounds a downsample request so a hostile or corrupt spec
// cannot drive a huge allocation server-side.
const maxBuckets = 1 << 20

// Validate checks the spec the way New does, without building a state.
func (s Spec) Validate() error {
	switch s.Op {
	case OpSummary, OpIntegral:
	case OpDownsample:
		if s.Buckets <= 0 {
			return fmt.Errorf("fold: downsample needs a positive bucket count (got %d)", s.Buckets)
		}
		if s.Buckets > maxBuckets {
			return fmt.Errorf("fold: downsample bucket count %d exceeds %d", s.Buckets, maxBuckets)
		}
	default:
		return fmt.Errorf("fold: unknown op %d", uint8(s.Op))
	}
	if s.To < s.From {
		return fmt.Errorf("fold: inverted range [%d, %d]", s.From, s.To)
	}
	return nil
}

// State is one in-progress fold. Add consumes the next chunk of the
// series (chunks must arrive in timestamp order); Count and Skipped
// report accepted and non-finite readings; Fingerprint is the
// order-sensitive hash of every reading consumed so far.
type State interface {
	Op() Op
	Add(rs []core.Reading)
	Count() int64
	Skipped() int64
	Fingerprint() uint64

	// sealed keeps the interface to this package's types, the only
	// ones the package-level Append/Decode pair (codec.go) encodes.
	sealed()
}

// New builds the empty state for a spec.
func New(spec Spec) (State, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch spec.Op {
	case OpSummary:
		return NewSummary(), nil
	case OpIntegral:
		return NewIntegral(), nil
	default:
		return NewDownsample(spec.From, spec.To, spec.Buckets), nil
	}
}

// fingerprint is FNV-1a over the (timestamp, value-bits) sequence; the
// multiply keeps it order-sensitive, so two replicas agree iff they
// folded the same readings in the same order (whp).
const (
	fpSeed  = 14695981039346656037
	fpPrime = 1099511628211
)

func fpAdd(h uint64, r core.Reading) uint64 {
	h = (h ^ uint64(r.Timestamp)) * fpPrime
	return (h ^ math.Float64bits(r.Value)) * fpPrime
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// --- Summary ---

// Summary folds count/min/max/sum plus the first and last readings.
// The zero value is not ready; use NewSummary. Non-finite values are
// skipped and counted.
type Summary struct {
	N, Skip  int64
	Min, Max float64
	Sum      float64
	First    core.Reading
	Last     core.Reading
	fp       uint64
}

// NewSummary returns an empty summary fold.
func NewSummary() *Summary { return &Summary{fp: fpSeed} }

// Op implements State.
func (s *Summary) Op() Op { return OpSummary }

// Add implements State.
func (s *Summary) Add(rs []core.Reading) {
	for _, r := range rs {
		s.fp = fpAdd(s.fp, r)
		if !finite(r.Value) {
			s.Skip++
			continue
		}
		if s.N == 0 {
			s.Min, s.Max = r.Value, r.Value
			s.First = r
		} else {
			if r.Value < s.Min {
				s.Min = r.Value
			}
			if r.Value > s.Max {
				s.Max = r.Value
			}
		}
		s.Sum += r.Value
		s.Last = r
		s.N++
	}
}

// Count implements State.
func (s *Summary) Count() int64 { return s.N }

// Skipped implements State.
func (s *Summary) Skipped() int64 { return s.Skip }

// Fingerprint implements State.
func (s *Summary) Fingerprint() uint64 { return s.fp }

// Mean returns Sum/Count, or NaN over an empty fold.
func (s *Summary) Mean() float64 {
	if s.N == 0 {
		return math.NaN()
	}
	return s.Sum / float64(s.N)
}

func (*Summary) sealed() {}

// --- Integral ---

// Integral folds the trapezoid-rule time integral. It carries the last
// accepted reading, which bridges the trapezoid into the next chunk. Pairs with non-positive dt (duplicate
// or reordered timestamps) contribute no area, mirroring Derivative's
// guard; non-finite values are skipped and counted.
type Integral struct {
	N, Skip int64
	Sum     float64
	Last    core.Reading
	fp      uint64
}

// NewIntegral returns an empty integral fold.
func NewIntegral() *Integral { return &Integral{fp: fpSeed} }

// Op implements State.
func (g *Integral) Op() Op { return OpIntegral }

// trapezoid returns the area between two consecutive readings, zero
// for non-positive dt.
func trapezoid(a, b core.Reading) float64 {
	dt := float64(b.Timestamp-a.Timestamp) / 1e9
	if dt <= 0 {
		return 0
	}
	return dt * (b.Value + a.Value) / 2
}

// Add implements State.
func (g *Integral) Add(rs []core.Reading) {
	for _, r := range rs {
		g.fp = fpAdd(g.fp, r)
		if !finite(r.Value) {
			g.Skip++
			continue
		}
		if g.N > 0 {
			g.Sum += trapezoid(g.Last, r)
		}
		g.Last = r
		g.N++
	}
}

// Count implements State.
func (g *Integral) Count() int64 { return g.N }

// Skipped implements State.
func (g *Integral) Skipped() int64 { return g.Skip }

// Fingerprint implements State.
func (g *Integral) Fingerprint() uint64 { return g.fp }

// Value returns the accumulated integral in value-units × seconds.
func (g *Integral) Value() float64 { return g.Sum }

func (*Integral) sealed() {}

// --- Derivative ---

// Derivative is the streaming discrete time derivative: one output
// reading per consecutive pair of finite inputs, stamped at the later
// point, in value-units per second. Pairs with non-positive dt are
// skipped (the previous point still advances); non-finite values are
// skipped and counted. Unlike the aggregate folds, Derivative emits a
// series rather than a scalar state, so it is a client-side fold only
// — it never crosses the RPC pushdown path. The zero value is ready.
type Derivative struct {
	Skip int64
	prev core.Reading
	have bool
}

// Add folds the next chunk, appending the derivative points it
// completes to dst (append-style: pass dst[:0] to reuse a buffer).
func (d *Derivative) Add(dst, rs []core.Reading) []core.Reading {
	for _, r := range rs {
		if !finite(r.Value) {
			d.Skip++
			continue
		}
		if d.have {
			dt := float64(r.Timestamp-d.prev.Timestamp) / 1e9
			if dt > 0 {
				dst = append(dst, core.Reading{
					Timestamp: r.Timestamp,
					Value:     (r.Value - d.prev.Value) / dt,
				})
			}
		}
		d.prev = r
		d.have = true
	}
	return dst
}

// --- Downsample ---

// Downsample folds a series into at most nmax points by averaging
// equal time buckets over the fixed grid [from, to] — the grid comes
// from the query range, not the data, so every replica of a pushdown
// buckets identically and states merge bucket-for-bucket. While the
// input holds nmax readings or fewer the fold is the identity (the
// readings pass through untouched, non-finite values included); past
// that it switches to bucket averaging, where non-finite values are
// skipped and counted. Memory is bounded by nmax either way.
type Downsample struct {
	FromTS, ToTS int64
	NMax         int
	Skip         int64

	raw  []core.Reading // identity buffer; nil once bucketed
	bsum []float64
	bn   []int64
	n    int64
	fp   uint64
}

// NewDownsample returns an empty downsample fold over the bucket grid
// [from, to] with at most nmax output points. nmax must be positive
// and to >= from.
func NewDownsample(from, to int64, nmax int) *Downsample {
	return &Downsample{FromTS: from, ToTS: to, NMax: nmax, fp: fpSeed}
}

// Op implements State.
func (d *Downsample) Op() Op { return OpDownsample }

// width returns the bucket width of the grid (0 for a degenerate
// single-timestamp range, which collapses to one bucket).
func (d *Downsample) width() int64 {
	if d.ToTS == d.FromTS {
		return 0
	}
	return (d.ToTS - d.FromTS + int64(d.NMax)) / int64(d.NMax)
}

// nBuckets is the grid size; width >= span/nmax keeps it <= NMax.
func (d *Downsample) nBuckets() int {
	w := d.width()
	if w == 0 {
		return 1
	}
	return int((d.ToTS-d.FromTS)/w) + 1
}

// bucketOf maps a timestamp onto the grid, clamping strays outside
// [from, to] into the boundary buckets.
func (d *Downsample) bucketOf(ts int64) int {
	w := d.width()
	if w == 0 {
		return 0
	}
	if ts < d.FromTS {
		return 0
	}
	i := int((ts - d.FromTS) / w)
	if nb := d.nBuckets(); i >= nb {
		i = nb - 1
	}
	return i
}

// toBuckets switches from the identity buffer to bucket averaging.
func (d *Downsample) toBuckets() {
	nb := d.nBuckets()
	d.bsum = make([]float64, nb)
	d.bn = make([]int64, nb)
	raw := d.raw
	d.raw = nil
	d.addBucketed(raw)
}

func (d *Downsample) addBucketed(rs []core.Reading) {
	for _, r := range rs {
		if !finite(r.Value) {
			d.Skip++
			continue
		}
		i := d.bucketOf(r.Timestamp)
		d.bsum[i] += r.Value
		d.bn[i]++
		d.n++
	}
}

// Add implements State.
func (d *Downsample) Add(rs []core.Reading) {
	for _, r := range rs {
		d.fp = fpAdd(d.fp, r)
	}
	if d.raw != nil || d.bsum == nil {
		d.raw = append(d.raw, rs...)
		d.n += int64(len(rs))
		if len(d.raw) > d.NMax {
			d.n = 0
			d.toBuckets()
		}
		return
	}
	d.addBucketed(rs)
}

// Count implements State: readings accepted (all of them in identity
// mode, finite ones in bucket mode).
func (d *Downsample) Count() int64 { return d.n }

// Skipped implements State.
func (d *Downsample) Skipped() int64 { return d.Skip }

// Fingerprint implements State.
func (d *Downsample) Fingerprint() uint64 { return d.fp }

// Result returns the downsampled series: the untouched input while it
// fits the point budget, else one averaged point per non-empty bucket,
// stamped at the bucket midpoint but never past the grid end (a
// Grafana range request must not receive points outside the range it
// asked for).
func (d *Downsample) Result() []core.Reading {
	if d.bsum == nil {
		return d.raw
	}
	w := d.width()
	out := make([]core.Reading, 0, len(d.bsum))
	for i := range d.bsum {
		if d.bn[i] == 0 {
			continue
		}
		ts := d.FromTS + int64(i)*w + w/2
		if ts > d.ToTS {
			ts = d.ToTS
		}
		out = append(out, core.Reading{Timestamp: ts, Value: d.bsum[i] / float64(d.bn[i])})
	}
	return out
}

func (*Downsample) sealed() {}
