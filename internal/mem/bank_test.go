package mem

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"syncron/internal/sim"
	"syncron/internal/trace"
)

func techByName(t *testing.T, name string) Tech {
	t.Helper()
	switch name {
	case "HBM":
		return HBM
	case "HMC":
		return HMC
	case "DDR4":
		return DDR4
	}
	t.Fatalf("unknown tech %q", name)
	return 0
}

// TestBankCrossValidation replays the recorded access trace in
// testdata/bank_crossval.csv — whose completion times were computed by hand
// from the BankTimingFor parameters — against the bank model, in the style
// of akita's DRAM timing cross-validation tests.
func TestBankCrossValidation(t *testing.T) {
	f, err := os.Open("testdata/bank_crossval.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	eng := sim.NewEngine()
	mems := map[string]*Memory{}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		row := strings.TrimSpace(sc.Text())
		if row == "" || strings.HasPrefix(row, "#") {
			continue
		}
		fields := strings.Split(row, ",")
		if len(fields) != 5 {
			t.Fatalf("line %d: want 5 fields, got %q", line, row)
		}
		tech := techByName(t, fields[0])
		issue, err1 := strconv.ParseInt(fields[1], 10, 64)
		addr, err2 := strconv.ParseUint(fields[2], 10, 64)
		wr, err3 := strconv.ParseInt(fields[3], 10, 64)
		want, err4 := strconv.ParseInt(fields[4], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			t.Fatalf("line %d: bad numbers in %q", line, row)
		}
		m := mems[fields[0]]
		if m == nil {
			m = NewModel(eng, 0, TimingFor(tech), ModelBank)
			mems[fields[0]] = m
		}
		got := m.Access(sim.Time(issue), addr, wr != 0)
		if got != sim.Time(want) {
			t.Errorf("line %d (%s, t=%d, addr=%d, write=%d): done = %d ps, want %d ps",
				line, fields[0], issue, addr, wr, got, want)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(mems) == 0 {
		t.Fatal("fixture contained no access rows")
	}
}

// TestBankGeometryTable pins the per-tech channel counts (the Table-5
// derivation the DDR4 comment documents) and the bank-model geometry derived
// from them.
func TestBankGeometryTable(t *testing.T) {
	cases := []struct {
		tech     Tech
		channels int
		banks    int
		rowBytes uint64
	}{
		{HBM, 8, 16, 1024},
		{HMC, 32, 8, 256},
		{DDR4, 1, 16, 8192},
	}
	for _, c := range cases {
		ft, bt := TimingFor(c.tech), BankTimingFor(c.tech)
		if ft.Channels != c.channels {
			t.Errorf("%v: channels = %d, want %d", c.tech, ft.Channels, c.channels)
		}
		if bt.Banks != c.banks || bt.RowBytes != c.rowBytes {
			t.Errorf("%v: geometry = %d banks x %d B rows, want %d x %d",
				c.tech, bt.Banks, bt.RowBytes, c.banks, c.rowBytes)
		}
		// Closed-bank miss equals the flat random-access latency, so the two
		// models agree on the uncontended worst case.
		if bt.ActivateLat+bt.ColReadLat != ft.ReadLatency {
			t.Errorf("%v: activate+col read = %v, want flat read %v",
				c.tech, bt.ActivateLat+bt.ColReadLat, ft.ReadLatency)
		}
		if bt.ActivateLat+bt.ColWriteLat != ft.WriteLatency {
			t.Errorf("%v: activate+col write = %v, want flat write %v",
				c.tech, bt.ActivateLat+bt.ColWriteLat, ft.WriteLatency)
		}
		// A clean row-conflict read pays exactly the flat per-access energy.
		e := float64(Line*8) * ft.EnergyPJPerBit
		if got := bt.PrechargePJ + bt.ActivatePJ + bt.ReadPJ; got != e {
			t.Errorf("%v: conflict-read energy = %f pJ, want flat %f", c.tech, got, e)
		}
	}
}

func TestBankRowHitLatency(t *testing.T) {
	eng := sim.NewEngine()
	m := NewModel(eng, 0, TimingFor(HBM), ModelBank)
	bt := BankTimingFor(HBM)
	first := m.Read(0, 0)
	wantFirst := bt.ActivateLat + bt.ColReadLat + m.Timing.ChannelBusy
	if first != wantFirst {
		t.Fatalf("closed-bank read = %v, want %v", first, wantFirst)
	}
	// Issue the same-row access after the bank and bus drained: pure hit.
	second := m.Read(first, Line*uint64(m.Timing.Channels))
	if want := first + bt.ColReadLat + m.Timing.ChannelBusy; second != want {
		t.Fatalf("open-row read = %v, want %v", second, want)
	}
	if hits := m.Stats.RowHits.Value(); hits != 1 {
		t.Fatalf("row hits = %d, want 1", hits)
	}
	if misses := m.Stats.RowMisses.Value(); misses != 1 {
		t.Fatalf("row misses = %d, want 1", misses)
	}
}

// Back-to-back same-row writes: the second write is a row hit (no precharge
// despite the dirty row — dirtiness only costs on a row change) and queues
// behind the first on the bank.
func TestBankBackToBackSameRowWrites(t *testing.T) {
	eng := sim.NewEngine()
	m := NewModel(eng, 0, TimingFor(DDR4), ModelBank)
	bt := BankTimingFor(DDR4)
	first := m.Write(0, 0)
	second := m.Write(0, Line)
	bankDoneFirst := first - m.Timing.ChannelBusy
	if want := bankDoneFirst + bt.ColWriteLat + m.Timing.ChannelBusy; second != want {
		t.Fatalf("second same-row write = %v, want %v (hit queued on bank)", second, want)
	}
	if m.Stats.RowHits.Value() != 1 || m.Stats.Precharges.Value() != 0 {
		t.Fatalf("hits=%d precharges=%d, want 1 and 0",
			m.Stats.RowHits.Value(), m.Stats.Precharges.Value())
	}
	// The dirty row now charges write recovery when a conflict closes it.
	conflict := m.Read(second, bt.RowBytes*uint64(bt.Banks)*uint64(m.Timing.Channels))
	wantLat := bt.WriteRecover + bt.PrechargeLat + bt.ActivateLat + bt.ColReadLat
	if want := second + wantLat + m.Timing.ChannelBusy; conflict != want {
		t.Fatalf("dirty-row conflict = %v, want %v", conflict, want)
	}
}

// Row conflict under queue pressure: alternating rows on one bank serialize
// on the bank with a full precharge+activate per access, and every access
// still completes no earlier than issue + its command latency.
func TestBankRowConflictUnderQueuePressure(t *testing.T) {
	eng := sim.NewEngine()
	m := NewModel(eng, 0, TimingFor(HBM), ModelBank)
	bt := BankTimingFor(HBM)
	rowStride := bt.RowBytes * uint64(bt.Banks) * uint64(m.Timing.Channels)
	var prev sim.Time
	for i := 0; i < 16; i++ {
		done := m.Read(0, uint64(i%2)*rowStride) // rows 0,1,0,1,... on bank 0
		if done <= prev {
			t.Fatalf("access %d: done %v not after previous %v", i, done, prev)
		}
		prev = done
	}
	// First access opens the bank; every later one conflicts.
	if hits, misses := m.Stats.RowHits.Value(), m.Stats.RowMisses.Value(); hits != 0 || misses != 16 {
		t.Fatalf("hits=%d misses=%d, want 0 and 16", hits, misses)
	}
	if pre := m.Stats.Precharges.Value(); pre != 15 {
		t.Fatalf("precharges = %d, want 15", pre)
	}
	perConflict := bt.PrechargeLat + bt.ActivateLat + bt.ColReadLat
	if minDone := sim.Time(15)*perConflict + bt.ActivateLat + bt.ColReadLat + m.Timing.ChannelBusy; prev < minDone {
		t.Fatalf("16 conflicting reads done at %v, want >= %v", prev, minDone)
	}
}

// Queue-full backpressure: with a shrunk queue, the (depth+1)-th in-flight
// request is admitted only once the oldest completes.
func TestBankQueueFullBackpressure(t *testing.T) {
	eng := sim.NewEngine()
	bt := BankTimingFor(HBM)
	bt.QueueDepth = 2
	m := NewBank(eng, 0, TimingFor(HBM), bt)
	d1 := m.Read(0, 0)
	m.Read(0, Line*uint64(m.Timing.Channels))
	third := m.Read(0, 2*Line*uint64(m.Timing.Channels))
	// All three issue at t=0 on bank 0; the third must wait for d1.
	if start := third - bt.ColReadLat - m.Timing.ChannelBusy; start < d1 {
		t.Fatalf("third request started at %v, before the oldest completed at %v", start, d1)
	}
	if stalls := m.Stats.QueueStalls.Value(); stalls != 1 {
		t.Fatalf("queue stalls = %d, want 1", stalls)
	}
	// Without pressure no stall is recorded.
	m2 := NewBank(sim.NewEngine(), 0, TimingFor(HBM), bt)
	m2.Read(0, 0)
	m2.Read(100*sim.Nanosecond, 0)
	if m2.Stats.QueueStalls.Value() != 0 {
		t.Fatalf("unexpected stall on drained queue")
	}
}

// Seeded property test: across deterministic mixed access patterns, the flat
// and bank models always agree on total bytes moved, and rank the three
// technologies identically by energy per bit.
func TestFlatBankAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	techs := []Tech{HBM, HMC, DDR4}
	for trial := 0; trial < 50; trial++ {
		n := 64 + rng.Intn(192)
		addrs := make([]uint64, n)
		writes := make([]bool, n)
		base := uint64(rng.Intn(1 << 20))
		stride := uint64(1+rng.Intn(512)) * Line
		for i := range addrs {
			if rng.Intn(3) == 0 { // random far jump
				addrs[i] = uint64(rng.Intn(1 << 26))
			} else { // strided stream
				addrs[i] = base + uint64(i)*stride
			}
			writes[i] = rng.Intn(4) == 0
		}
		perBit := func(model Model) []float64 {
			out := make([]float64, len(techs))
			for ti, tech := range techs {
				m := NewModel(sim.NewEngine(), 0, TimingFor(tech), model)
				now := sim.Time(0)
				for i, a := range addrs {
					m.Access(now, a, writes[i])
					now += sim.Nanosecond
				}
				if got := m.Stats.Accesses() * Line; got != uint64(n)*Line {
					t.Fatalf("trial %d %v/%v: bytes = %d, want %d",
						trial, model, tech, got, uint64(n)*Line)
				}
				out[ti] = m.EnergyPJ() / float64(m.Stats.Accesses()*Line*8)
			}
			return out
		}
		flat, bank := perBit(ModelFlat), perBit(ModelBank)
		if rank(flat) != rank(bank) {
			t.Fatalf("trial %d: energy-per-bit tech ordering diverged: flat %v, bank %v",
				trial, flat, bank)
		}
	}
}

// rank returns the technology order as a string like "0<1<2" (indices sorted
// by ascending value).
func rank(v []float64) string {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	parts := make([]string, len(idx))
	for i, j := range idx {
		parts[i] = fmt.Sprint(j)
	}
	return strings.Join(parts, "<")
}

// The bank scheduler hot path must not allocate: it runs once per DRAM
// access and the perf gate pins the whole simulator at 0 allocs/event.
func TestBankAccessSteadyStateAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	m := NewModel(eng, 0, TimingFor(HBM), ModelBank)
	now := sim.Time(0)
	addr := uint64(0)
	if avg := testing.AllocsPerRun(2000, func() {
		m.Access(now, addr, addr%3 == 0)
		now += sim.Nanosecond
		addr += 7 * Line
	}); avg != 0 {
		t.Fatalf("bank access allocates %.2f per call in steady state", avg)
	}
}

// Traced bank accesses emit one bank_busy record each as they are modeled;
// FlushTrace adds exactly the run-total row_hit/row_miss counters.
func TestBankTraceEmission(t *testing.T) {
	eng := sim.NewEngine()
	m := NewModel(eng, 0, TimingFor(HBM), ModelBank)
	col := trace.NewCollector()
	m.SetTracer(col)
	m.Read(0, 0)
	m.Read(0, Line*uint64(m.Timing.Channels))
	for i, r := range col.Records() {
		if r.What != trace.WhatBankBusy {
			t.Fatalf("access emitted record %d = %+v, want bank_busy", i, r)
		}
	}
	if col.Len() != 2 {
		t.Fatalf("accesses emitted %d records, want 2 bank_busy", col.Len())
	}
	m.FlushTrace()
	if col.Len() != 4 {
		t.Fatalf("FlushTrace emitted %d records, want 2 (row_hit, row_miss)", col.Len()-2)
	}
	recs := col.Records()
	var busy, hit, miss int
	for _, r := range recs {
		switch r.What {
		case trace.WhatBankBusy:
			busy++
			if r.Where != "dram.u0" || r.Unit != "bank" {
				t.Fatalf("bad bank_busy record: %+v", r)
			}
		case trace.WhatRowHit:
			hit++
			if r.Value != 1 {
				t.Fatalf("row_hit value = %f, want 1", r.Value)
			}
		case trace.WhatRowMiss:
			miss++
			if r.Value != 1 {
				t.Fatalf("row_miss value = %f, want 1", r.Value)
			}
		}
	}
	if busy != 2 || hit != 1 || miss != 1 {
		t.Fatalf("records = %d bank_busy, %d row_hit, %d row_miss; want 2,1,1", busy, hit, miss)
	}
	// A second flush emits only the counters again, no bank_busy.
	col.Reset()
	m.FlushTrace()
	for _, r := range col.Records() {
		if r.What == trace.WhatBankBusy {
			t.Fatalf("stale bank_busy span re-emitted after flush")
		}
	}
}

// Under the flat model an attached tracer emits nothing, keeping flat traces
// byte-identical whether or not the memory is wired to the tracer.
func TestFlatModelTracesNothing(t *testing.T) {
	eng := sim.NewEngine()
	m := NewModel(eng, 0, TimingFor(HBM), ModelFlat)
	col := trace.NewCollector()
	m.SetTracer(col)
	m.Read(0, 0)
	m.Write(0, Line)
	m.FlushTrace()
	if col.Len() != 0 {
		t.Fatalf("flat model emitted %d trace records, want 0", col.Len())
	}
	if m.bank != nil || NewModel(eng, 0, TimingFor(HBM), "").bank != nil {
		t.Fatal("flat/default model identity broken")
	}
}
