package gemm

// CMulAccPointwise accumulates c[i] += a[i] * conj-or-plain b[i] over a
// slice; with conjB set it computes the correlation form. It is the
// elementwise frequency-domain product the FFT convolution engines ran
// one (image, filter, channel) plane at a time before they moved to one
// packed real GEMM per frequency bin (internal/conv/fftconv.go); the
// end-to-end benchmark still times it as a probe.
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
