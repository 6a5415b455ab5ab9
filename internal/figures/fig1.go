package figures

import (
	"fmt"

	"gbcr/internal/sim"
	"gbcr/internal/storage"
)

// Fig1 reproduces Figure 1: bandwidth per client and aggregated throughput
// with 1–32 clients writing checkpoint files concurrently to the 4-server
// PVFS2 storage system. Each client-count point is an independent
// simulation, scheduled on the generator's worker pool.
func (g *Generator) Fig1() (*Table, error) {
	clients := []int{1, 2, 4, 8, 16, 32}
	t := &Table{
		Title:     "Figure 1: Bandwidth to Storage vs Number of Clients",
		Unit:      "MB/s",
		ColHeader: "clients",
		RowHeader: "metric",
		Rows:      []string{"Bandwidth per Client", "Aggregated Throughput"},
	}
	const size = 256 * storage.MB
	for _, n := range clients {
		t.Cols = append(t.Cols, fmt.Sprint(n))
	}
	return g.fill("fig1", t, len(clients), func(pt int) error {
		n := clients[pt]
		k := sim.NewKernel(1)
		st, err := storage.New(k, storage.PaperConfig())
		if err != nil {
			return err
		}
		var makespan sim.Time
		for i := 0; i < n; i++ {
			k.Spawn(fmt.Sprintf("client%d", i), func(p *sim.Proc) {
				if _, err := st.Write(p, size); err != nil {
					k.Fail(fmt.Errorf("figures: fig1 write: %w", err))
					return
				}
				if p.Now() > makespan {
					makespan = p.Now()
				}
			})
		}
		if err := k.Run(); err != nil {
			return fmt.Errorf("%d clients: %w", n, err)
		}
		per := float64(size) / makespan.Seconds() / storage.MB
		t.Cells[0][pt] = per
		t.Cells[1][pt] = per * float64(n)
		return nil
	})
}
