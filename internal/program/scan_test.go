package program

import (
	"bytes"
	"slices"
	"testing"

	"syncron/internal/arch"
	"syncron/internal/sim"
	"syncron/internal/trace"
)

// scanFunc is ScanReads' signature, so a kernel can take either ScanReads or
// plainScan.
type scanFunc func(from, n int, instrs int64, addr func(int) uint64, stop func(int) bool) int

// plainScan is what ScanReads models, written as the program's own loop.
func plainScan(ctx *Ctx) scanFunc {
	return func(from, n int, instrs int64, addr func(int) uint64, stop func(int) bool) int {
		for i := from; i < n; i++ {
			ctx.Compute(instrs)
			ctx.Read(addr(i))
			if stop(i) {
				return i
			}
		}
		return n
	}
}

// scanCase is one shape of scanKernel.
type scanCase struct {
	name      string
	instrs    int64
	cacheable func(i int) bool // entry i lives in the cacheable arena
	never     bool             // no check ever holds
}

// scanRun is the outcome of one scanKernel run.
type scanRun struct {
	events   uint64
	makespan sim.Time
	stats    []Stats
	best     []int
	stops    []int // every index a scan returned, in host order
	trace    []byte
}

// scanKernel runs a push-style kernel on four cores in two units: in each
// round a core draws a value per entry of a shared array of minima, scans
// the entries with an unlocked read and a check that its value improves the
// entry's minimum, updates the entry under its lock where the check holds,
// and resumes the scan after it. Like sssp's candidate distance, the value
// the check compares is set by addr, the code before each read. With scan
// set the scan is ScanReads, otherwise plainScan.
func scanKernel(tc scanCase, scan bool) scanRun {
	const entries = 24
	col := trace.NewCollector()
	m := arch.NewMachine(arch.Config{Units: 2, CoresPerUnit: 2, Tracer: col})
	m.Backend = &instantBackend{}
	r := NewRunner(m)
	best := make([]int, entries)
	data := make([]uint64, entries)
	locks := make([]uint64, entries)
	for i := range best {
		best[i] = 1 << 20
		if tc.cacheable != nil && tc.cacheable(i) {
			data[i] = m.Alloc(i%2, 64)
		} else {
			data[i] = m.AllocShared(i%2, 64)
		}
		locks[i] = m.Alloc(i%2, 64)
	}
	var stops []int
	r.AddN(m.NumCores(), func(int) Program {
		return func(ctx *Ctx) {
			run := scanFunc(ctx.ScanReads)
			if !scan {
				run = plainScan(ctx)
			}
			hot := m.Alloc(ctx.Unit, 64)
			vals := make([]int, entries)
			var cur int
			addr := func(i int) uint64 {
				cur = vals[i]
				return data[i]
			}
			improves := func(i int) bool { return !tc.never && cur < best[i] }
			for k := 0; k < scanRounds; k++ {
				for i := range vals {
					vals[i] = ctx.RNG.Intn(1 << 20)
				}
				ctx.Read(hot)
				for i := run(0, entries, tc.instrs, addr, improves); ; i = run(i+1, entries, tc.instrs, addr, improves) {
					stops = append(stops, i)
					if i == entries {
						break
					}
					ctx.Lock(locks[i])
					if cur < best[i] {
						best[i] = cur
						ctx.Write(data[i])
					}
					ctx.Unlock(locks[i])
				}
			}
		}
	})
	out := scanRun{makespan: r.Run(), stats: r.Stats(), best: best, stops: stops}
	m.FlushTrace()
	out.events = m.Engine.Executed
	var csv bytes.Buffer
	if err := col.WriteCSV(&csv); err != nil {
		panic(err)
	}
	out.trace = csv.Bytes()
	return out
}

// scanRounds is the number of scans each of scanKernel's four cores starts.
const scanRounds = 12

// ScanReads changes where the program's checks run on the host, not what
// the simulation does: a kernel written with it runs the same events, in the
// same order, with the same timing, counters and trace as the kernel written
// as the plain Compute, Read and check loop, and its checks see the same
// shared state, so they stop at the same elements.
func TestScanReadsMatchesPlainLoop(t *testing.T) {
	for _, tc := range []scanCase{
		{name: "stops and resumes", instrs: 5},
		{name: "no element stops", instrs: 5, never: true},
		{name: "no compute", instrs: 0},
		{name: "cacheable", instrs: 5, cacheable: func(int) bool { return true }},
		{name: "mixed arenas", instrs: 3, cacheable: func(i int) bool { return i%3 == 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, got := scanKernel(tc, false), scanKernel(tc, true)
			// Each scan ends once; every other stop is a check that held.
			if held := len(want.stops) - 4*scanRounds; tc.never != (held == 0) {
				t.Fatalf("%d checks held; the case needs %s", held, map[bool]string{true: "none", false: "some"}[tc.never])
			}
			if got.events != want.events {
				t.Errorf("executed %d events, plain loop %d", got.events, want.events)
			}
			if got.makespan != want.makespan {
				t.Errorf("makespan %v, plain loop %v", got.makespan, want.makespan)
			}
			if !slices.Equal(got.stats, want.stats) {
				t.Errorf("per-core stats %+v, plain loop %+v", got.stats, want.stats)
			}
			if !slices.Equal(got.best, want.best) || !slices.Equal(got.stops, want.stops) {
				t.Errorf("minima or stops differ from the plain loop's")
			}
			if len(want.trace) < 1000 || !bytes.Equal(got.trace, want.trace) {
				t.Errorf("trace CSVs differ or are empty: %d vs %d bytes", len(got.trace), len(want.trace))
			}
		})
	}
}

// A scan from n returns n, calls neither callback and adds no event.
func TestScanReadsFromEndIsEmpty(t *testing.T) {
	run := func(scan bool) (got int, events uint64, span sim.Time) {
		m := newM()
		r := NewRunner(m)
		a := m.AllocShared(1, 64)
		got = -1
		r.Add(func(ctx *Ctx) {
			ctx.Compute(10)
			if scan {
				got = ctx.ScanReads(3, 3, 5,
					func(int) uint64 { panic("addr called") },
					func(int) bool { panic("stop called") })
			}
			ctx.Read(a)
		})
		span = r.Run()
		return got, m.Engine.Executed, span
	}
	got, events, span := run(true)
	_, wantEvents, wantSpan := run(false)
	if got != 3 || events != wantEvents || span != wantSpan {
		t.Errorf("ScanReads(3, 3) = %d, %d events, makespan %v; want 3, %d, %v",
			got, events, span, wantEvents, wantSpan)
	}
}

// A check that the core's events run sees a store core 2 makes while the
// scanned read is in flight, as code after Read would: the store lands
// between element 1's issue and its completion.
func TestScanReadsChecksAtCompletion(t *testing.T) {
	m := newM()
	r := NewRunner(m)
	near, far := m.AllocShared(0, 64), m.AllocShared(1, 64)
	local := m.AllocShared(1, 64)
	flag := false
	var issued, done, stored sim.Time
	got := -1
	r.AddAt(0, func(ctx *Ctx) { // unit 0: element 0 is local, element 1 remote
		got = ctx.ScanReads(0, 2, 0,
			func(i int) uint64 {
				if i == 1 {
					issued = m.Engine.Now()
					return far
				}
				return near
			},
			func(i int) bool {
				if i == 1 {
					done = m.Engine.Now()
				}
				return flag
			})
	})
	r.AddAt(2, func(ctx *Ctx) { // unit 1: local is local
		ctx.Read(local)
		ctx.Compute(20)
		stored = ctx.Now()
		flag = true
	})
	r.Run()
	if !(issued < stored && stored < done) {
		t.Fatalf("fixture needs issue < store < completion; got %v, %v, %v", issued, stored, done)
	}
	if got != 1 {
		t.Errorf("ScanReads = %d, want 1: the check at element 1's completion (%v) missed the store at %v",
			got, done, stored)
	}
}

// A panic in a scan callback, which runs in a core's event outside the
// program's coroutine, aborts the run at once with its own value, like a
// program panic.
func TestScanCallbackPanicAbortsRun(t *testing.T) {
	r := NewRunner(newM())
	bug := &progBug{core: 0}
	shared := r.M.AllocShared(1, 64)
	r.Add(func(ctx *Ctx) {
		ctx.ScanReads(0, 8, 1, func(int) uint64 { return shared },
			func(i int) bool {
				if i == 2 {
					panic(bug)
				}
				return false
			})
	})
	const loops = 10000
	count := 0
	r.Add(func(ctx *Ctx) {
		for i := 0; i < loops; i++ {
			ctx.Compute(1)
			count++
		}
	})
	if v := runRecover(r); v != any(bug) {
		t.Fatalf("Run panicked with %#v, want the callback's own value %#v", v, bug)
	}
	if count >= 1000 {
		t.Errorf("core 1 ran %d of %d operations after core 0's callback panicked", count, loops)
	}
}
