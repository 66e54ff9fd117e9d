package network

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"syncron/internal/sim"
)

// goldenTrace drives net through a deterministic pseudo-random mix of
// same-unit and cross-unit transfers on 4 units and returns one line per
// call: "src dst port bytes t arrival".
func goldenTrace(net *Network) string {
	const units = 4
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	var b strings.Builder
	t := sim.Time(0)
	for i := 0; i < 600; i++ {
		src := next(units)
		dst := next(units)
		var port int
		switch next(3) {
		case 0:
			port = PortSE
		case 1:
			port = PortMemory
		default:
			port = PortCore(next(15))
		}
		bytes := []int{16, 18, 19, 64, 72}[next(5)]
		t += sim.Time(next(2000))
		arr := net.Transfer(t, src, dst, port, bytes)
		fmt.Fprintf(&b, "%d %d %d %d %d %d\n", src, dst, port, bytes, int64(t), int64(arr))
	}
	fmt.Fprintf(&b, "intra %d inter %d\n", net.Stats.IntraBits.Value(), net.Stats.InterBits.Value())
	return b.String()
}

const goldenPath = "testdata/transfer_alltoall.golden"

// TestAllToAllGoldenTrace locks the full-point-to-point timing model: the
// route-based AllToAll topology must reproduce the pre-refactor Transfer
// arrival times bit for bit. Regenerate with -run GoldenTrace -update only
// for a deliberate, documented timing-model change.
func TestAllToAllGoldenTrace(t *testing.T) {
	got := goldenTrace(newNet(4))
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden updated")
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("AllToAll transfer trace deviates from pre-refactor golden (len got %d, want %d)",
			len(got), len(want))
	}
}
