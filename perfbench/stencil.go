package main

import (
	"fmt"
	"math/rand"

	"accmulti/internal/ir"
)

// replicatedStencilSrc is a ping-pong three-point stencil with no
// localaccess directive: both arrays are replicated on every GPU, and
// after each sweep the runtime ships the written elements between the
// replicas by the two-level dirty bits.
const replicatedStencilSrc = `
int n, steps;
float a[n], b[n];

void main() {
    int t, i;
    #pragma acc data copy(a, b)
    {
        for (t = 0; t < steps; t++) {
            #pragma acc parallel loop
            for (i = 1; i < n - 1; i++) {
                b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
            }
            #pragma acc parallel loop
            for (i = 1; i < n - 1; i++) {
                a[i] = 0.25 * b[i - 1] + 0.5 * b[i] + 0.25 * b[i + 1];
            }
        }
    }
}
`

// haloStencilSrc distributes the arrays: localaccess stride(1, 1, 1)
// gives each GPU its partition of a plus one ghost element per side,
// refreshed by halo exchange after every sweep. The boundary branch in
// the first loop is one the kernel specializer does not compile.
const haloStencilSrc = `
int n, steps;
float a[n], b[n];

void main() {
    int t, i;
    #pragma acc data copy(a) create(b)
    {
        for (t = 0; t < steps; t++) {
            #pragma acc localaccess(a) stride(1, 1, 1)
            #pragma acc localaccess(b) stride(1)
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                if (i > 0 && i < n - 1) {
                    b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
                } else {
                    b[i] = a[i];
                }
            }
            #pragma acc localaccess(b) stride(1)
            #pragma acc localaccess(a) stride(1)
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
                a[i] = b[i];
            }
        }
    }
}
`

// smooth is one sweep of the three-point stencil over the interior,
// evaluated in double precision and stored as float, as the C source
// specifies.
func smooth(dst, src []float32) {
	for i := 1; i < len(src)-1; i++ {
		dst[i] = float32(0.25*float64(src[i-1]) + 0.5*float64(src[i]) + 0.25*float64(src[i+1]))
	}
}

// stencilInput binds n seeded random values to a, and b zeroed.
func stencilInput(n, steps int, seed int64) *ir.Bindings {
	rng := rand.New(rand.NewSource(seed))
	a := &ir.HostArray{F32: make([]float32, n)}
	for i := range a.F32 {
		a.F32[i] = rng.Float32()
	}
	b := &ir.HostArray{F32: make([]float32, n)}
	return ir.NewBindings().SetScalar("n", float64(n)).SetScalar("steps", float64(steps)).
		SetArray("a", a).SetArray("b", b)
}

// replicatedReference runs the replicated stencil sequentially and
// returns the check of a run's final a and b against it.
func replicatedReference(in *ir.Bindings, steps int) func(*ir.Instance) error {
	a := append([]float32(nil), in.Arrays["a"].F32...)
	b := append([]float32(nil), in.Arrays["b"].F32...)
	for t := 0; t < steps; t++ {
		smooth(b, a)
		smooth(a, b)
	}
	return func(inst *ir.Instance) error {
		return compareArrays(inst, map[string][]float32{"a": a, "b": b})
	}
}

// haloReference runs the halo stencil sequentially and returns the
// check of a run's final a against it (b is device-only, never copied
// back).
func haloReference(in *ir.Bindings, steps int) func(*ir.Instance) error {
	a := append([]float32(nil), in.Arrays["a"].F32...)
	b := make([]float32, len(a))
	for t := 0; t < steps; t++ {
		copy(b, a) // the boundary arm: b[i] = a[i]
		smooth(b, a)
		copy(a, b)
	}
	return func(inst *ir.Instance) error {
		return compareArrays(inst, map[string][]float32{"a": a})
	}
}

func compareArrays(inst *ir.Instance, want map[string][]float32) error {
	for name, w := range want {
		got, err := inst.Array(name)
		if err != nil {
			return err
		}
		if len(got.F32) != len(w) {
			return fmt.Errorf("%s: %d elements, want %d", name, len(got.F32), len(w))
		}
		for i := range w {
			if got.F32[i] != w[i] {
				return fmt.Errorf("%s[%d] = %g, want %g", name, i, got.F32[i], w[i])
			}
		}
	}
	return nil
}
