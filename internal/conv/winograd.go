package conv

import (
	"fmt"

	"gpucnn/internal/gemm"
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

// The transforms below work on blocks of wgChunk tiles stored
// transform-position-major, blk[ξ][k] for tile k, so a block row is a
// run of consecutive floats of one of the 16 matrices (see wgChunk).
// Every intermediate is a local, so a transform stays in registers.

// winogradFilter computes U = G·g·Gᵀ for one 3×3 filter plane into
// column k of blk, with G = [[1,0,0],[½,½,½],[½,−½,½],[0,0,1]].
func winogradFilter(g []float32, blk *[16][wgChunk]float32, k int) {
	g = g[:9:9]
	a0, a1, a2 := g[0], g[1], g[2]
	b0, b1, b2 := g[3], g[4], g[5]
	c0, c1, c2 := g[6], g[7], g[8]
	// The rows of t = G·g are a, ½(a+b+c), ½(a−b+c) and c; each row of
	// t gives one row of U = t·Gᵀ.
	filterRow(blk[0:4], k, a0, a1, a2)
	filterRow(blk[4:8], k, 0.5*(a0+b0+c0), 0.5*(a1+b1+c1), 0.5*(a2+b2+c2))
	filterRow(blk[8:12], k, 0.5*(a0-b0+c0), 0.5*(a1-b1+c1), 0.5*(a2-b2+c2))
	filterRow(blk[12:16], k, c0, c1, c2)
}

// filterRow writes (x, y, z)·Gᵀ, one row of U.
func filterRow(u [][wgChunk]float32, k int, x, y, z float32) {
	u = u[:4:4]
	u[0][k], u[1][k], u[2][k], u[3][k] = x, 0.5*(x+y+z), 0.5*(x-y+z), z
}

// winogradInput computes V = Bᵀ·d·B for one 4×4 input tile into
// column k of blk, with Bᵀ = [[1,0,−1,0],[0,1,1,0],[0,−1,1,0],[0,1,0,−1]].
func winogradInput(d *[16]float32, blk *[16][wgChunk]float32, k int) {
	// The rows of t = Bᵀ·d are d0−d2, d1+d2, d2−d1 and d1−d3; each row
	// of t gives one row of V = t·B.
	inputRow(blk[0:4], k, d[0]-d[8], d[1]-d[9], d[2]-d[10], d[3]-d[11])
	inputRow(blk[4:8], k, d[4]+d[8], d[5]+d[9], d[6]+d[10], d[7]+d[11])
	inputRow(blk[8:12], k, d[8]-d[4], d[9]-d[5], d[10]-d[6], d[11]-d[7])
	inputRow(blk[12:16], k, d[4]-d[12], d[5]-d[13], d[6]-d[14], d[7]-d[15])
}

// inputRow writes (t0, t1, t2, t3)·B, one row of V.
func inputRow(v [][wgChunk]float32, k int, t0, t1, t2, t3 float32) {
	v = v[:4:4]
	v[0][k], v[1][k], v[2][k], v[3][k] = t0-t2, t1+t2, t2-t1, t1-t3
}

// winogradOutput computes y = Aᵀ·m·A (2×2) from column k of blk, with
// Aᵀ = [[1,1,1,0],[0,1,−1,−1]].
func winogradOutput(blk *[16][wgChunk]float32, k int, y *[4]float32) {
	m := blk[:16:16]
	// The rows of t = Aᵀ·m are m0+m1+m2 and m1−m2−m3.
	t00 := m[0][k] + m[4][k] + m[8][k]
	t01 := m[1][k] + m[5][k] + m[9][k]
	t02 := m[2][k] + m[6][k] + m[10][k]
	t03 := m[3][k] + m[7][k] + m[11][k]
	t10 := m[4][k] - m[8][k] - m[12][k]
	t11 := m[5][k] - m[9][k] - m[13][k]
	t12 := m[6][k] - m[10][k] - m[14][k]
	t13 := m[7][k] - m[11][k] - m[15][k]
	y[0], y[1] = t00+t01+t02, t01-t02-t03
	y[2], y[3] = t10+t11+t12, t11-t12-t13
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

// The pass runs in the Lavin & Gray layout: every transform is done
// once and the channel reduction Σ_c U⊙V becomes 16 matrix products,
// one per transform-domain position ξ (0..15):
//
//	U[ξ] (f×c)  = filter transforms, one row per filter
//	V[ξ] (c×T)  = input-tile transforms, T = batch·tiles columns
//	M[ξ] (f×T)  = U[ξ]·V[ξ]                      16 packed GEMMs
//	y           = Aᵀ·M·A per (filter, tile)      inverse transform
//
// U, V and M are carved from the pass's arena. The transform phases
// hand out one item per filter or channel, never one per (f, c)
// plane: a per-plane item is too small to pay for its claim. Within an
// item the transforms run wgChunk at a time into a stack block, which
// is then copied to (or, for the inverse, from) the 16 matrices as
// runs of wgChunk consecutive floats: one transform's 16 values lie a
// whole matrix apart, and storing them one by one would touch 16 cache
// lines per transform.
const wgChunk = 16

// wgUJob transforms the filter bank into U: item fi writes row fi of
// all 16 matrices. With rot set, w is the bank of the layer whose data
// gradient the pass computes, and U is built from its rotated,
// channel-transposed planes: row fi, column ci transforms
// rot180(w[ci][fi]).
type wgUJob struct {
	f, c int
	rot  bool
	w, u []float32
}

//hot:noalloc
func (j *wgUJob) Run(fi int) {
	var blk [16][wgChunk]float32
	var g [9]float32
	fc := j.f * j.c
	for c0 := 0; c0 < j.c; c0 += wgChunk {
		cn := min(wgChunk, j.c-c0)
		for k := 0; k < cn; k++ {
			if !j.rot {
				winogradFilter(j.w[(fi*j.c+c0+k)*9:], &blk, k)
				continue
			}
			src := j.w[((c0+k)*j.f+fi)*9:][:9]
			for t := range g {
				g[t] = src[8-t]
			}
			winogradFilter(g[:], &blk, k)
		}
		flushRows(j.u, fc, fi*j.c+c0, &blk, cn)
	}
}

var wgUPool = par.NewJobPool[wgUJob]()

// wgVJob transforms the input tiles into V: item ci writes row ci of
// all 16 matrices, one column per (image, tile) with the tiles of an
// image row-major.
type wgVJob struct {
	batch, c, i, p, tw int
	x, v               []float32
}

//hot:noalloc
func (j *wgVJob) Run(ci int) {
	var d [16]float32
	var blk [16][wgChunk]float32
	i, p := j.i, j.p
	tiles := j.batch * j.tw * j.tw
	at := ci * tiles // where the next flush lands in each matrix
	k := 0
	for n := 0; n < j.batch; n++ {
		plane := j.x[(n*j.c+ci)*i*i : (n*j.c+ci+1)*i*i]
		for ty := 0; ty < j.tw; ty++ {
			for tx := 0; tx < j.tw; tx++ {
				gatherTile(plane, i, ty*2-p, tx*2-p, &d)
				winogradInput(&d, &blk, k)
				if k++; k == wgChunk {
					flushRows(j.v, j.c*tiles, at, &blk, k)
					at, k = at+k, 0
				}
			}
		}
	}
	flushRows(j.v, j.c*tiles, at, &blk, k)
}

// gatherTile copies the 4×4 tile of an i×i plane at (y0, x0) into d,
// zero outside the plane.
func gatherTile(plane []float32, i, y0, x0 int, d *[16]float32) {
	if y0 >= 0 && x0 >= 0 && y0+4 <= i && x0+4 <= i {
		for r := 0; r < 4; r++ {
			src := plane[(y0+r)*i+x0:][:4]
			d[r*4], d[r*4+1], d[r*4+2], d[r*4+3] = src[0], src[1], src[2], src[3]
		}
		return
	}
	for r := 0; r < 4; r++ {
		iy := y0 + r
		for cc := 0; cc < 4; cc++ {
			ix := x0 + cc
			if iy < 0 || iy >= i || ix < 0 || ix >= i {
				d[r*4+cc] = 0
			} else {
				d[r*4+cc] = plane[iy*i+ix]
			}
		}
	}
}

// flushRows copies the first n columns of blk into the 16 matrices of
// dst (each stride floats long) at offset at.
func flushRows(dst []float32, stride, at int, blk *[16][wgChunk]float32, n int) {
	for xi := range blk {
		copy(dst[xi*stride+at:][:n], blk[xi][:n])
	}
}

var wgVPool = par.NewJobPool[wgVJob]()

// wgGEMMJob runs the 16 products M[ξ] = U[ξ]·V[ξ], one item per ξ. A
// worker carves its GEMM's packing panels from its slot's child arena,
// so at batch 1 every core multiplies.
type wgGEMMJob struct {
	par.Span
	f, c, tiles int
	u, v, m     []float32
	kids        []*workspace.Arena
}

//hot:noalloc
func (j *wgGEMMJob) Run(slot int) {
	ws := j.kids[slot]
	fc, ct, ft := j.f*j.c, j.c*j.tiles, j.f*j.tiles
	for xi, ok := j.Claim(); ok; xi, ok = j.Claim() {
		ws.Reset()
		gemm.Blocked(ws, 1, j.u[xi*fc:(xi+1)*fc], j.v[xi*ct:(xi+1)*ct], 0, j.m[xi*ft:(xi+1)*ft], j.f, j.tiles, j.c)
	}
}

var wgGEMMPool = par.NewJobPool[wgGEMMJob]()

// wgYJob applies the inverse transform: item fi reads row fi of all 16
// M matrices and writes filter fi's output plane of every image,
// clipping the ragged edge tiles of an odd output.
type wgYJob struct {
	batch, f, o, tw int
	m, y            []float32
}

//hot:noalloc
func (j *wgYJob) Run(fi int) {
	var blk [16][wgChunk]float32
	var out [4]float32
	o, tw := j.o, j.tw
	tiles := j.batch * tw * tw
	ft := j.f * tiles
	at, end := fi*tiles, (fi+1)*tiles // the next block to load, and row fi's end
	k := wgChunk
	for n := 0; n < j.batch; n++ {
		plane := j.y[(n*j.f+fi)*o*o : (n*j.f+fi+1)*o*o]
		for ty := 0; ty < tw; ty++ {
			for tx := 0; tx < tw; tx++ {
				if k == wgChunk {
					tn := min(wgChunk, end-at)
					for xi := range blk {
						copy(blk[xi][:tn], j.m[xi*ft+at:][:tn])
					}
					at, k = at+tn, 0
				}
				winogradOutput(&blk, k, &out)
				k++
				for r := 0; r < 2; r++ {
					oy := ty*2 + r
					if oy >= o {
						continue
					}
					for cc := 0; cc < 2; cc++ {
						if ox := tx*2 + cc; ox < o {
							plane[oy*o+ox] = out[r*2+cc]
						}
					}
				}
			}
		}
	}
}

var wgYPool = par.NewJobPool[wgYJob]()

// WinogradForward computes y = x ⋆ w with the F(2×2, 3×3) minimal
// filtering algorithm. Results match DirectForward within float32
// round-off. Scratch (the U, V and M banks and the GEMMs' packing
// panels) comes from ws, which the pass resets.
func WinogradForward(ws *workspace.Arena, cfg Config, x, w, y *tensor.Tensor) {
	if err := WinogradSupported(cfg); err != nil {
		panic(err)
	}
	checkShapes(cfg, x, w, y)
	ws.Reset()
	winogradForwardRaw(ws, cfg, x.Data, w.Data, y.Data, false)
}

// winogradForwardRaw is WinogradForward on raw slices. The
// backward-data pass calls it with rot set (see wgUJob), so the
// rotated, transposed filter bank is never built. It carves U, V and M
// from ws without resetting it; the GEMM workers carve from ws's
// children.
func winogradForwardRaw(ws *workspace.Arena, cfg Config, x, w, y []float32, rot bool) {
	f, c, o := cfg.Filters, cfg.Channels, cfg.Out()
	tw := (o + 1) / 2
	tiles := cfg.Batch * tw * tw
	u := ws.Float32Uninit(16 * f * c)
	v := ws.Float32Uninit(16 * c * tiles)
	m := ws.Float32Uninit(16 * f * tiles)

	uj := wgUPool.Get()
	uj.f, uj.c, uj.rot, uj.w, uj.u = f, c, rot, w, u
	par.ForEachRunner(f, uj)
	uj.w, uj.u = nil, nil
	wgUPool.Put(uj)

	vj := wgVPool.Get()
	vj.batch, vj.c, vj.i, vj.p, vj.tw = cfg.Batch, c, cfg.Input, cfg.Pad, tw
	vj.x, vj.v = x, v
	par.ForEachRunner(c, vj)
	vj.x, vj.v = nil, nil
	wgVPool.Put(vj)

	gj := wgGEMMPool.Get()
	gj.Reset(16)
	gj.f, gj.c, gj.tiles = f, c, tiles
	gj.u, gj.v, gj.m = u, v, m
	gj.kids = ws.Children(gj.Slots())
	par.ForEachSlot(&gj.Span, gj)
	ws.Level()
	gj.u, gj.v, gj.m, gj.kids = nil, nil, nil, nil
	wgGEMMPool.Put(gj)

	yj := wgYPool.Get()
	yj.batch, yj.f, yj.o, yj.tw = cfg.Batch, f, o, tw
	yj.m, yj.y = m, y
	par.ForEachRunner(f, yj)
	yj.m, yj.y = nil, nil
	wgYPool.Put(yj)
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
// spatially-rotated, channel-transposed filter bank, so the forward
// pass applies directly to a reinterpreted configuration, reading the
// bank rotated and transposed as it transforms it.
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
	ws.Reset()
	winogradForwardRaw(ws, back, dy.Data, w.Data, dx.Data, true)
}
