package gemm

import "gpucnn/internal/par"

// skinnyM is the largest m that ParallelNT serves by streaming B's rows
// instead of packing them. A fully-connected layer's forward at a small
// batch is such a product: m is the batch, B is the out×in weight
// matrix, and packing all of B to multiply it by a handful of rows
// costs more than the multiply. Streaming reads each weight row once,
// straight from where it lies, and dots it against the m input rows
// while it is in cache. The bound comes from the FC rows of
// BenchmarkLayer in internal/nn; past it the packed kernel's register
// tiling wins.
const skinnyM = 4

// skinnyRows is how many rows of B one claimed item covers.
const skinnyRows = 16

// skinnyJob computes C = alpha·A·Bᵀ + beta·C for a skinny A, one
// claimed block of B's rows at a time.
type skinnyJob struct {
	par.Span
	alpha, beta float32
	a, b, c     []float32
	m, n, k     int
}

//hot:noalloc
func (j *skinnyJob) Run(int) {
	for it, ok := j.Claim(); ok; it, ok = j.Claim() {
		j0 := it * skinnyRows
		for col := j0; col < min(j0+skinnyRows, j.n); col++ {
			w := j.b[col*j.k : (col+1)*j.k]
			for i := 0; i < j.m; i++ {
				d := j.alpha * dot(j.a[i*j.k:(i+1)*j.k], w)
				ci := &j.c[i*j.n+col]
				if j.beta == 0 {
					*ci = d
				} else {
					*ci = d + j.beta**ci
				}
			}
		}
	}
}

var skinnyJobPool = par.NewJobPool[skinnyJob]()

// skinnyNT is ParallelNT's path for m ≤ skinnyM: each row of B is
// dotted against every row of A, rows claimed over up to workers
// slots. With alpha or k zero it leaves C = beta·C, as the packed
// path does.
func skinnyNT(workers int, alpha float32, a, b []float32, beta float32, c []float32, m, n, k int) {
	if alpha == 0 || k == 0 || m == 0 {
		scaleRows(beta, c, 0, m, n)
		return
	}
	j := skinnyJobPool.Get()
	j.alpha, j.beta = alpha, beta
	j.a, j.b, j.c = a, b, c
	j.m, j.n, j.k = m, n, k
	j.Reset((n + skinnyRows - 1) / skinnyRows)
	if workers <= 1 {
		j.Run(0)
	} else {
		par.ForEachSlot(&j.Span, j)
	}
	j.a, j.b, j.c = nil, nil, nil
	skinnyJobPool.Put(j)
}

// dot returns Σ x[i]·y[i] over len(x), in eight interleaved partial
// sums so the adds do not wait on one another.
//
//hot:noalloc
func dot(x, y []float32) float32 {
	y = y[:len(x)]
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= len(x); i += 8 {
		xs, ys := x[i:i+8:i+8], y[i:i+8:i+8]
		s0 += xs[0] * ys[0]
		s1 += xs[1] * ys[1]
		s2 += xs[2] * ys[2]
		s3 += xs[3] * ys[3]
		s4 += xs[4] * ys[4]
		s5 += xs[5] * ys[5]
		s6 += xs[6] * ys[6]
		s7 += xs[7] * ys[7]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}
