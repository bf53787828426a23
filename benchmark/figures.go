package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"time"

	"gpucnn/internal/bench"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/workload"
)

// figuresSession regenerates the paper's figures and Table II, the
// reproduction path of cmd/runall. Its inputs are the paper's fixed
// configurations, so the seed changes nothing.
type figuresSession struct {
	opt    bench.Options
	spec   gpusim.DeviceSpec
	digest [sha256.Size]byte
	ops    int

	cells int           // sweep cells per op
	sim   time.Duration // simulated time of one training iteration of each cell, per op
}

func newFiguresSession(int64) (session, error) {
	s := &figuresSession{opt: bench.Options{Workers: runtime.NumCPU()}, spec: gpusim.TeslaK40c()}
	for i := 0; i < warmupOps; i++ {
		if _, err := s.step(nil, -1); err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return s, nil
}

func (s *figuresSession) close() {}

// check grades the paper's claims: every one must reproduce.
func (s *figuresSession) check(r *report) {
	var claims []bench.Claim
	if err := guard(func() error {
		claims = bench.ScorecardCtx(context.Background(), s.opt)
		return nil
	}); err != nil {
		r.fail("scorecard: %v", err)
		return
	}
	passed := 0
	for _, c := range claims {
		if c.Pass {
			passed++
		} else {
			r.fail("scorecard claim %s does not reproduce: paper %s, measured %s", c.ID, c.Paper, c.Measured)
		}
	}
	r.note("scorecard: %d/%d claims reproduced", passed, len(claims))
}

// step renders every figure and table as text, as runall prints them,
// and checks the text is byte-identical to the first op's.
func (s *figuresSession) step(tr *tracer, root int) (int, error) {
	var text strings.Builder
	cells, sim := 0, time.Duration(0)
	ctx := context.Background()
	part := func(name, layer string, f func()) {
		sp := tr.begin(name, layer, 0, root)
		f()
		tr.end(sp)
	}
	err := guard(func() error {
		part("Figure 2", "bench.fig2", func() {
			bds := bench.Figure2Ctx(ctx, s.opt)
			text.WriteString(bench.RenderFigure2(bds))
			cells += len(bds)
			for _, b := range bds {
				sim += b.Total
			}
		})
		part("Figures 3 and 5", "bench.fig3", func() {
			for _, sweep := range workload.SweepNames() {
				rows := bench.Figure3Ctx(ctx, sweep, s.spec, s.opt)
				text.WriteString(bench.RenderSweepTimes(sweep, rows))
				text.WriteString(bench.RenderSweepMemory(sweep, rows))
				for _, row := range rows {
					cells += len(row.Cells)
					for _, c := range row.Cells {
						sim += c.Time
					}
				}
			}
		})
		part("Figure 4", "bench.fig4", func() {
			shares := bench.Figure4()
			text.WriteString(bench.RenderFigure4(shares))
			cells += len(shares)
		})
		part("Figure 6", "bench.fig6", func() {
			rows := bench.Figure6Ctx(ctx, s.opt)
			text.WriteString(bench.RenderFigure6(rows))
			cells += len(rows)
			for _, row := range rows {
				sim += row.Cell.Time
			}
		})
		part("Figure 7", "bench.fig7", func() {
			rows := bench.Figure7Ctx(ctx, s.opt)
			text.WriteString(bench.RenderFigure7(rows))
			cells += len(rows)
		})
		part("Table II", "bench.table2", func() {
			rows := bench.TableIICtx(ctx, s.opt)
			text.WriteString(bench.RenderTableII(rows))
			cells += len(rows)
		})
		return nil
	})
	if err != nil {
		return 0, err
	}
	digest := sha256.Sum256([]byte(text.String()))
	s.ops++
	if s.ops == 1 {
		s.digest, s.cells, s.sim = digest, cells, sim
	} else if digest != s.digest {
		return cells, fmt.Errorf("output differs from the first op's: digest %x, want %x", digest[:8], s.digest[:8])
	}
	return cells, nil
}

func (s *figuresSession) measure(window time.Duration, tr *tracer, r *report) {
	run := runSteps(s, window, tr, r)
	run.record(r, tr, "sweep cells")
	r.note("every op rendered the same %d cells, sha256 %x", s.cells, s.digest)
	if tr == nil {
		return
	}
	r.set("bench.cells_per_op", float64(s.cells))
	r.set("gpusim.sim_ms_per_op", ms(s.sim))
}
