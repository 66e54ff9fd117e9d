package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

func TestLayerOfFunc(t *testing.T) {
	cases := map[string]string{
		"runtime.mallocgc":                                                             "runtime",
		"runtime.gcBgMarkWorker":                                                       "runtime",
		"runtime/internal/atomic.(*Uint32).Load":                                       "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                                 "runtime",
		"type:.eq.syncron/internal/arch.SyncReq":                                       "runtime",
		"syncron/internal/sim.(*Engine).Run":                                           "sim",
		"syncron/internal/sim.(*Engine).schedule":                                      "sim",
		"syncron/internal/program.(*Ctx).Lock":                                         "program",
		"syncron/internal/core.(*Coordinator).Request.func1":                           "sync",
		"syncron/internal/baselines.(*server).handle":                                  "sync",
		"syncron/internal/coherlock.(*Backend).Request":                                "sync",
		"syncron/internal/network.(*Network).Transfer":                                 "network",
		"syncron/internal/mem.(*Memory).Access":                                        "mem",
		"syncron/internal/cache.(*Cache).Access":                                       "cache",
		"syncron/internal/coherence.(*Directory).Read":                                 "cache",
		"syncron/internal/arch.(*Machine).AccessFrom":                                  "arch",
		"syncron/internal/workloads/graphs.Generate":                                   "workloads",
		"syncron/internal/workloads/ds.(*BST).Op":                                      "workloads",
		"syncron/internal/trace.(*EngineHook).OnAdvance":                               "trace",
		"main.(*aggTracer).Emit":                                                       "trace",
		"main.runSpec":                                                                 "",
		"syncron.(*System).Run":                                                        "",
		"sort.Slice":                                                                   "",
		"sync.(*Mutex).Lock":                                                           "",
		"slices.SortFunc[go.shape.[]syncron/internal/trace.Record,go.shape.struct {}]": "",
	}
	for fn, want := range cases {
		if got := layerOfFunc(fn); got != want {
			t.Errorf("layerOfFunc(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerOfStackSkipsStandardLibrary(t *testing.T) {
	stack := []string{"sort.insertionSort", "sort.Slice", "syncron/internal/mem.(*Memory).Access",
		"syncron/internal/arch.(*Machine).AccessFrom"}
	if got := layerOfStack(stack); got != "mem" {
		t.Errorf("layerOfStack = %q, want mem", got)
	}
	if got := layerOfStack([]string{"sort.Slice", "main.main"}); got != "" {
		t.Errorf("layerOfStack of a stack outside the simulator = %q, want unbucketed", got)
	}
}

func TestHostSharesSumToOne(t *testing.T) {
	run := "syncron.(*System).Run"
	samples := []profSample{
		{[]string{"runtime.gopark", "syncron/internal/program.(*Ctx).wait"}, 6}, // a core's goroutine
		{[]string{"syncron/internal/sim.(*Engine).Run", run, "main.runSpec"}, 3},
		{[]string{"math.Log", run, "main.runSpec"}, 1},                                    // unbucketed
		{[]string{"syncron/internal/workloads/graphs.Generate", "main.setup"}, 50},        // set-up: outside
		{[]string{"runtime.memmove", "runtime/pprof.(*profileBuilder).build"}, 40},        // profiler: outside
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 10}, // GC worker
	}
	shares, unbucketed, err := hostShares(samples)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"runtime": 16.0 / 20, "sim": 3.0 / 20}
	sum := unbucketed
	for _, l := range hostLayers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", l, shares[l], want[l])
		}
	}
	if math.Abs(unbucketed-1.0/20) > 1e-12 || math.Abs(sum-1) > 1e-12 {
		t.Errorf("unbucketed %v, sum of shares %v; want 0.05 and 1", unbucketed, sum)
	}
}

// protoMsg builds protobuf messages for the decoder test.
type protoMsg []byte

func (m protoMsg) varint(field int, v uint64) protoMsg {
	m = binary.AppendUvarint(m, uint64(field)<<3)
	return binary.AppendUvarint(m, v)
}

func (m protoMsg) bytes(field int, b []byte) protoMsg {
	m = binary.AppendUvarint(m, uint64(field)<<3|2)
	m = binary.AppendUvarint(m, uint64(len(b)))
	return append(m, b...)
}

func TestParseCPUProfile(t *testing.T) {
	var packed protoMsg
	for _, loc := range []uint64{1, 2} {
		packed = binary.AppendUvarint(packed, loc)
	}
	// Location 2 holds an inlined call: step inlined into Run.
	loc2 := protoMsg(nil).varint(1, 2).
		bytes(4, protoMsg(nil).varint(1, 12)).
		bytes(4, protoMsg(nil).varint(1, 11))
	prof := protoMsg(nil).
		bytes(6, nil). // string 0 is always ""
		bytes(6, []byte("runtime.mallocgc")).
		bytes(6, []byte("syncron/internal/sim.(*Engine).Run")).
		bytes(6, []byte("syncron/internal/sim.(*Engine).step")).
		bytes(5, protoMsg(nil).varint(1, 10).varint(2, 1)).
		bytes(5, protoMsg(nil).varint(1, 11).varint(2, 2)).
		bytes(5, protoMsg(nil).varint(1, 12).varint(2, 3)).
		bytes(4, protoMsg(nil).varint(1, 1).bytes(4, protoMsg(nil).varint(1, 10))).
		bytes(4, loc2).
		// One sample with packed locations, one with a single unpacked one.
		bytes(2, protoMsg(nil).bytes(1, packed).varint(2, 3).varint(2, 30000000)).
		bytes(2, protoMsg(nil).varint(1, 2).varint(2, 1).varint(2, 10000000))
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := parseCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []profSample{
		{[]string{"runtime.mallocgc", "syncron/internal/sim.(*Engine).step", "syncron/internal/sim.(*Engine).Run"}, 3},
		{[]string{"syncron/internal/sim.(*Engine).step", "syncron/internal/sim.(*Engine).Run"}, 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %+v, want %+v", got, want)
	}
}
