package nn

import "repro/internal/nn/kernel"

// kern is the process-global kernel set every hot loop in this package calls
// through — Dense forward/backward and the fused Adam step alike. The CPU
// selects it exactly once, at kernel package init (before any nn code runs),
// so the single-sample inference path, the batched decision path, and the
// training engine are guaranteed to use the same arithmetic for the life of
// the process. See the kernel package and this package's doc.go for the
// resulting numerical contract, and the purego build tag for testing the go
// set where the CPU has the avx2 one.
var kern = kernel.Active()
