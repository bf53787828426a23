package conv

import (
	"fmt"

	"gpucnn/internal/par"
	"gpucnn/internal/tensor"
	"gpucnn/internal/workspace"
)

// Winograd F(2×2, 3×3) convolution — the minimal-filtering algorithm
// (Lavin & Gray) that cuDNN adopted after the paper's study. It is
// implemented here as the paper's "opportunities for further
// optimization": for 3×3/stride-1 layers it needs 2.25× fewer
// multiplications than direct or unrolled convolution (16 multiplies
// per 4 outputs per channel instead of 36).
//
// Transforms for one 4×4 input tile d and 3×3 filter g:
//
//	U = G·g·Gᵀ   V = Bᵀ·d·B   M = Σ_c U ⊙ V   y = Aᵀ·M·A (2×2)
//
// with the standard F(2,3) matrices G (4×3), Bᵀ (4×4), Aᵀ (2×4).

// winogradFilter computes U = G·g·Gᵀ for one 3×3 filter plane into a
// 16-element tile.
func winogradFilter(g []float32, u *[16]float32) {
	// t = G·g (4×3), with G = [[1,0,0],[½,½,½],[½,−½,½],[0,0,1]].
	var t [4][3]float32
	for c := 0; c < 3; c++ {
		g0, g1, g2 := g[0*3+c], g[1*3+c], g[2*3+c]
		t[0][c] = g0
		t[1][c] = 0.5 * (g0 + g1 + g2)
		t[2][c] = 0.5 * (g0 - g1 + g2)
		t[3][c] = g2
	}
	// U = t·Gᵀ (4×4).
	for r := 0; r < 4; r++ {
		a, b, c := t[r][0], t[r][1], t[r][2]
		u[r*4+0] = a
		u[r*4+1] = 0.5 * (a + b + c)
		u[r*4+2] = 0.5 * (a - b + c)
		u[r*4+3] = c
	}
}

// winogradInput computes V = Bᵀ·d·B for one 4×4 input tile, with
// Bᵀ = [[1,0,−1,0],[0,1,1,0],[0,−1,1,0],[0,1,0,−1]].
func winogradInput(d *[16]float32, v *[16]float32) {
	var t [16]float32
	// t = Bᵀ·d
	for c := 0; c < 4; c++ {
		d0, d1, d2, d3 := d[0*4+c], d[1*4+c], d[2*4+c], d[3*4+c]
		t[0*4+c] = d0 - d2
		t[1*4+c] = d1 + d2
		t[2*4+c] = d2 - d1
		t[3*4+c] = d1 - d3
	}
	// v = t·B
	for r := 0; r < 4; r++ {
		t0, t1, t2, t3 := t[r*4+0], t[r*4+1], t[r*4+2], t[r*4+3]
		v[r*4+0] = t0 - t2
		v[r*4+1] = t1 + t2
		v[r*4+2] = t2 - t1
		v[r*4+3] = t1 - t3
	}
}

// winogradOutput computes y = Aᵀ·m·A (2×2) with Aᵀ = [[1,1,1,0],[0,1,−1,−1]].
func winogradOutput(m *[16]float32, y *[4]float32) {
	var t [8]float32
	for c := 0; c < 4; c++ {
		m0, m1, m2, m3 := m[0*4+c], m[1*4+c], m[2*4+c], m[3*4+c]
		t[0*4+c] = m0 + m1 + m2
		t[1*4+c] = m1 - m2 - m3
	}
	for r := 0; r < 2; r++ {
		t0, t1, t2, t3 := t[r*4+0], t[r*4+1], t[r*4+2], t[r*4+3]
		y[r*2+0] = t0 + t1 + t2
		y[r*2+1] = t1 - t2 - t3
	}
}

// WinogradSupported reports whether the config fits F(2×2,3×3).
func WinogradSupported(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Kernel != 3 {
		return fmt.Errorf("conv: winograd F(2x2,3x3) requires kernel 3, got %d", cfg.Kernel)
	}
	if cfg.Stride != 1 {
		return fmt.Errorf("conv: winograd F(2x2,3x3) requires stride 1, got %d", cfg.Stride)
	}
	return nil
}

// wgFilterJob transforms filter planes into a flat arena-carved U
// buffer (16 floats per plane); pooled for allocation-free dispatch.
type wgFilterJob struct {
	w, us []float32
}

func (j *wgFilterJob) Run(i int) {
	winogradFilter(j.w[i*9:(i+1)*9], (*[16]float32)(j.us[i*16:(i+1)*16]))
}

var wgFilterPool = par.NewJobPool[wgFilterJob]()

// wgTileJob computes one (batch, filter) output plane from the
// pre-transformed filter bank.
type wgTileJob struct {
	c, i, f, p, o int
	x, us, y      []float32
}

func (j *wgTileJob) Run(job int) {
	c, i, p, o := j.c, j.i, j.p, j.o
	tilesY := (o + 1) / 2
	tilesX := (o + 1) / 2
	n, fi := job/j.f, job%j.f
	out := j.y[(n*j.f+fi)*o*o:]
	var d, v, m [16]float32
	var ytile [4]float32
	for ty := 0; ty < tilesY; ty++ {
		for tx := 0; tx < tilesX; tx++ {
			for k := range m {
				m[k] = 0
			}
			for ci := 0; ci < c; ci++ {
				// Gather the 4×4 input tile (with padding).
				xChan := j.x[(n*c+ci)*i*i:]
				for r := 0; r < 4; r++ {
					iy := ty*2 + r - p
					for cc := 0; cc < 4; cc++ {
						ix := tx*2 + cc - p
						if iy < 0 || iy >= i || ix < 0 || ix >= i {
							d[r*4+cc] = 0
						} else {
							d[r*4+cc] = xChan[iy*i+ix]
						}
					}
				}
				winogradInput(&d, &v)
				u := (*[16]float32)(j.us[(fi*c+ci)*16:])
				for k := 0; k < 16; k++ {
					m[k] += u[k] * v[k]
				}
			}
			winogradOutput(&m, &ytile)
			// Scatter the 2×2 output tile (clipping the ragged edge).
			for r := 0; r < 2; r++ {
				oy := ty*2 + r
				if oy >= o {
					continue
				}
				for cc := 0; cc < 2; cc++ {
					ox := tx*2 + cc
					if ox >= o {
						continue
					}
					out[oy*o+ox] = ytile[r*2+cc]
				}
			}
		}
	}
}

var wgTilePool = par.NewJobPool[wgTileJob]()

// WinogradForward computes y = x ⋆ w with the F(2×2, 3×3) minimal
// filtering algorithm. Results match DirectForward within float32
// round-off. Work is distributed over (batch, filter) pairs; the
// transformed filter bank is carved from ws, which the pass resets.
func WinogradForward(ws *workspace.Arena, cfg Config, x, w, y *tensor.Tensor) {
	if err := WinogradSupported(cfg); err != nil {
		panic(err)
	}
	checkShapes(cfg, x, w, y)
	ws.Reset()
	winogradForwardRaw(ws, cfg, x.Data, w.Data, y.Data)
}

// winogradForwardRaw is WinogradForward on raw slices, used by the
// backward-data pass so the reinterpreted filter bank can live in an
// arena carve-out instead of a fresh tensor. It carves from ws without
// resetting it. Tiles live on each worker's stack, so the workers need
// no scratch slots of their own.
func winogradForwardRaw(ws *workspace.Arena, cfg Config, x, w, y []float32) {
	f, c := cfg.Filters, cfg.Channels
	// Pre-transform every filter plane: U[f][c] is 16 floats, stored
	// flat in the arena.
	us := ws.Float32Uninit(f * c * 16)
	fj := wgFilterPool.Get()
	fj.w, fj.us = w, us
	par.ForEachRunner(f*c, fj)
	fj.w, fj.us = nil, nil
	wgFilterPool.Put(fj)

	tj := wgTilePool.Get()
	tj.c, tj.i, tj.f, tj.p, tj.o = c, cfg.Input, f, cfg.Pad, cfg.Out()
	tj.x, tj.us, tj.y = x, us, y
	par.ForEachRunner(cfg.Batch*f, tj)
	tj.x, tj.us, tj.y = nil, nil, nil
	wgTilePool.Put(tj)
}

// WinogradMultiplies returns the number of elementwise multiplies the
// F(2×2,3×3) forward pass performs: 16 per tile per (b, f, c) triple —
// the 2.25× arithmetic reduction over direct convolution's 36.
func WinogradMultiplies(cfg Config) float64 {
	o := cfg.Out()
	tiles := float64((o + 1) / 2 * ((o + 1) / 2))
	return 16 * tiles * float64(cfg.Batch) * float64(cfg.Filters) * float64(cfg.Channels)
}

// WinogradBackwardData computes dx for a 3×3/stride-1 layer with the
// same minimal-filtering algorithm: the data gradient is itself a full
// 3×3 correlation of the padded output gradient with the
// spatially-rotated, channel-transposed filter bank, so WinogradForward
// applies directly to a reinterpreted configuration.
func WinogradBackwardData(ws *workspace.Arena, cfg Config, dy, w, dx *tensor.Tensor) {
	if err := WinogradSupported(cfg); err != nil {
		panic(err)
	}
	checkShapes(cfg, dx, w, dy)
	o := cfg.Out()
	// Reinterpreted geometry: "input" is dy (f channels, o×o), "filters"
	// are the rotated transposed bank (c filters over f channels), and
	// full-correlation padding k-1-p recovers the i×i gradient.
	back := Config{
		Batch: cfg.Batch, Input: o, Channels: cfg.Filters,
		Filters: cfg.Channels, Kernel: cfg.Kernel, Stride: 1,
		Pad: cfg.Kernel - 1 - cfg.Pad,
	}
	if got := back.Out(); got != cfg.Input {
		panic(fmt.Sprintf("conv: winograd backward geometry produced %d, want %d", got, cfg.Input))
	}
	// wT[c][f] = rot180(w[f][c]), built in an arena carve-out.
	k := cfg.Kernel
	ws.Reset()
	wT := ws.Float32Uninit(cfg.Channels * cfg.Filters * k * k)
	rj := wgRotPool.Get()
	rj.k2, rj.f, rj.c = k*k, cfg.Filters, cfg.Channels
	rj.w, rj.wT = w.Data, wT
	par.ForEachRunner(cfg.Filters*cfg.Channels, rj)
	rj.w, rj.wT = nil, nil
	wgRotPool.Put(rj)
	winogradForwardRaw(ws, back, dy.Data, wT, dx.Data)
}

// wgRotJob builds the rotated, channel-transposed filter bank used by
// the backward-data pass.
type wgRotJob struct {
	k2, f, c int
	w, wT    []float32
}

func (j *wgRotJob) Run(idx int) {
	f, c := idx/j.c, idx%j.c
	src := j.w[(f*j.c+c)*j.k2:]
	dst := j.wT[(c*j.f+f)*j.k2:]
	for t := 0; t < j.k2; t++ {
		dst[t] = src[j.k2-1-t]
	}
}

var wgRotPool = par.NewJobPool[wgRotJob]()
