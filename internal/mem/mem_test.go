package mem

import (
	"testing"
	"testing/quick"

	"syncron/internal/sim"
)

func TestTimingTable(t *testing.T) {
	hbm, hmc, ddr := TimingFor(HBM), TimingFor(HMC), TimingFor(DDR4)
	if hbm.Channels != 8 || hmc.Channels != 32 || ddr.Channels != 1 {
		t.Fatal("channel counts do not match Table 5 derivation")
	}
	// Latency ordering: HBM < HMC < DDR4 (the Figure 18 premise).
	if !(hbm.ReadLatency < hmc.ReadLatency && hmc.ReadLatency < ddr.ReadLatency) {
		t.Fatalf("latency ordering violated: %v %v %v",
			hbm.ReadLatency, hmc.ReadLatency, ddr.ReadLatency)
	}
	if hbm.EnergyPJPerBit != 7.0 {
		t.Fatalf("HBM energy %f pJ/bit, want 7 (Table 5)", hbm.EnergyPJPerBit)
	}
}

func TestUncontendedLatency(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, 0, TimingFor(HBM))
	done := m.Read(0, 0x40)
	if done != TimingFor(HBM).ReadLatency {
		t.Fatalf("uncontended read = %v, want %v", done, TimingFor(HBM).ReadLatency)
	}
}

func TestChannelQueueing(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, 0, TimingFor(HBM))
	// Two back-to-back accesses to the same channel: the second queues.
	first := m.Read(0, 0x40)
	second := m.Read(0, 0x40+8*Line*uint64(TimingFor(HBM).Channels)) // same channel
	if second <= first {
		t.Fatalf("same-channel access did not queue: %v then %v", first, second)
	}
	// Different channel: no queueing.
	m2 := New(eng, 0, TimingFor(HBM))
	m2.Read(0, 0x40)
	other := m2.Read(0, 0x40+Line)
	if other != TimingFor(HBM).ReadLatency {
		t.Fatalf("different-channel access queued: %v", other)
	}
}

// Property: completion time is always >= issue time + raw latency, and
// monotonically consistent for same-channel FIFO issue.
func TestAccessLatencyProperty(t *testing.T) {
	if err := quick.Check(func(addrs []uint32, writes []bool) bool {
		eng := sim.NewEngine()
		m := New(eng, 0, TimingFor(HBM))
		now := sim.Time(0)
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			lat := m.Timing.ReadLatency
			if w {
				lat = m.Timing.WriteLatency
			}
			done := m.Access(now, uint64(a), w)
			if done < now+lat {
				return false
			}
			now += 2 * sim.Nanosecond
		}
		return m.Stats.Accesses() == uint64(len(addrs))
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyPJ(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, 0, TimingFor(HBM))
	m.Read(0, 0)
	m.Write(0, 64)
	// 2 accesses x 64B x 8b x 7pJ/bit
	want := 2.0 * 64 * 8 * 7
	if got := m.EnergyPJ(); got != want {
		t.Fatalf("energy = %f, want %f", got, want)
	}
}
