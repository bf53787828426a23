package gemm

// CMulAccPointwise accumulates c[i] += a[i] * conj-or-plain b[i] over a
// slice. With conjB set it computes the correlation form, which the
// frequency-domain convolution's forward and backward-filter passes
// use; backward-data uses the plain product.
func CMulAccPointwise(c, a, b []complex64, conjB bool) {
	if len(a) != len(b) || len(a) != len(c) {
		panic("gemm: pointwise length mismatch")
	}
	if conjB {
		for i := range c {
			br := real(b[i])
			bi := -imag(b[i])
			ar := real(a[i])
			ai := imag(a[i])
			c[i] += complex(ar*br-ai*bi, ar*bi+ai*br)
		}
		return
	}
	for i := range c {
		c[i] += a[i] * b[i]
	}
}
