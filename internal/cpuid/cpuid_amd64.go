//go:build amd64

package cpuid

// probe reads CPUID and XGETBV; implemented in cpuid_amd64.s.
func probe() Level
