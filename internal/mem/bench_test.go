package mem

import (
	"testing"

	"syncron/internal/sim"
)

// BenchmarkMemAccess measures one Access on one HBM stack under each timing
// model. The stream is fixed: runs of four lines that follow each other in
// one channel (so the last three hit the open row under the bank model),
// each run starting at a pseudo-random line, one write in four, issued 1 ns
// apart so the channels and bank queues stay busy.
func BenchmarkMemAccess(b *testing.B) {
	stride := uint64(TimingFor(HBM).Channels) * Line
	addrs := make([]uint64, 1<<14)
	x := uint64(1)
	for i := range addrs {
		if i%4 == 0 {
			x = x*6364136223846793005 + 1442695040888963407
		}
		addrs[i] = x>>40*Line + uint64(i%4)*stride
	}
	for _, model := range Models() {
		b.Run(string(model), func(b *testing.B) {
			m := NewModel(sim.NewEngine(), 0, TimingFor(HBM), model)
			now := sim.Time(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Access(now, addrs[i%len(addrs)], i%4 == 3)
				now += sim.Nanosecond
			}
			b.StopTimer()
			if model == ModelBank {
				b.ReportMetric(float64(m.Stats.RowHits.Value())/float64(b.N), "row_hits/op")
			}
		})
	}
}
