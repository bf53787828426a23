package impls

import (
	"fmt"
	"strings"
	"sync"
)

// All returns the seven implementations in the order the paper lists
// them: Caffe, Torch-cunn, Theano-CorrMM, Theano-fft, cuDNN,
// cuda-convnet2, fbfft.
func All() []Engine {
	return []Engine{
		NewCaffe(),
		NewTorchCunn(),
		NewTheanoCorrMM(),
		NewTheanoFFT(),
		NewCuDNN(),
		NewCudaConvnet2(),
		NewFbfft(),
	}
}

// Names returns the names of all engines in registry order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, e := range all {
		names[i] = e.Name()
	}
	return names
}

var (
	extMu   sync.Mutex
	extCtor []func() Engine
)

// RegisterExtension adds an engine constructor to the Extensions()
// registry (and therefore to ByName lookup). Packages layered on top
// of impls that provide additional engines — internal/planner's
// cost-model-driven Autotuned — call this from init(), which keeps the
// dependency edge pointing outward: impls never imports them.
func RegisterExtension(ctor func() Engine) {
	extMu.Lock()
	defer extMu.Unlock()
	extCtor = append(extCtor, ctor)
}

// Extensions returns implementations that go beyond the paper's seven —
// the Winograd engine, one of the "opportunities for further
// optimization" the paper's conclusion identifies, and Theano-legacy,
// which the paper names but does not evaluate — plus the engines
// installed via RegisterExtension (the planner's Autotuned, in any
// binary that links internal/planner). They are kept out of All() so
// the reproduced comparisons stay faithful.
func Extensions() []Engine {
	out := []Engine{NewWinograd(), NewTheanoLegacy()}
	extMu.Lock()
	defer extMu.Unlock()
	for _, ctor := range extCtor {
		out = append(out, ctor())
	}
	return out
}

// ByName looks an engine up case-insensitively by its paper name
// (extensions included).
func ByName(name string) (Engine, error) {
	for _, e := range append(All(), Extensions()...) {
		if strings.EqualFold(e.Name(), name) {
			return e, nil
		}
	}
	return nil, fmt.Errorf("impls: unknown implementation %q (have %s)",
		name, strings.Join(Names(), ", "))
}
