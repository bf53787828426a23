//go:build !amd64

package cpuid

// probe is Go off amd64: every kernel runs its portable scalar form.
func probe() Level { return Go }
