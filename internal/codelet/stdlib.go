package codelet

import "fixgo/internal/core"

// Standard-library codelets. Each source is assembled at init; the
// corresponding *FunctionBlob helpers wrap the bytecode in the MagicVM
// function-Blob convention ready to be placed in an invocation Tree.

// AddSrc reads the two integer Blob arguments of its invocation Tree
// [limits, fn, a, b] and returns the Blob of a+b. It is the trivial
// function of the paper's Fig. 7a ("add two 8-bit integers"; this codelet
// handles any integers up to 64 bits).
const AddSrc = `
.memory 64
    li   r1, 0
    li   r2, 2
    host tree_child     ; r0 = slot of a
    mov  r1, r0
    host read_u64       ; r0 = a
    mov  r5, r0
    li   r1, 0
    li   r2, 3
    host tree_child     ; r0 = slot of b
    mov  r1, r0
    host read_u64       ; r0 = b
    add  r1, r5, r0
    host lit_u64        ; r0 = slot of a+b
    ret  r0
`

// IncSrc reads the integer Blob argument of [limits, fn, x] and returns
// x+1. It is the chain link of the paper's Fig. 7b orchestration
// benchmark.
const IncSrc = `
.memory 64
    li   r1, 0
    li   r2, 2
    host tree_child
    mov  r1, r0
    host read_u64
    addi r1, r0, 1
    host lit_u64
    ret  r0
`

// IfSrc implements Algorithm 1 of the paper: [limits, fn, pred, a, b]
// reads the boolean predicate Blob and returns child a or b unevaluated —
// the unselected Thunk's dependencies never load.
const IfSrc = `
.memory 64
    li   r1, 0
    li   r2, 2
    host tree_child
    mov  r1, r0
    host read_u64       ; r0 = predicate
    jz   r0, else
    li   r1, 0
    li   r2, 3
    host tree_child
    ret  r0
else:
    li   r1, 0
    li   r2, 4
    host tree_child
    ret  r0
`

// FibSrc implements Algorithm 2 of the paper: [limits, fib, add, x]
// returns lit(x) for x < 2, and otherwise builds two strictly encoded
// recursive Thunks and an application of add over their results.
const FibSrc = `
.memory 128
    li   r1, 0
    li   r2, 0
    host tree_child     ; limits
    mov  r6, r0
    li   r1, 0
    li   r2, 1
    host tree_child     ; fib function blob
    mov  r7, r0
    li   r1, 0
    li   r2, 2
    host tree_child     ; add function blob
    mov  r8, r0
    li   r1, 0
    li   r2, 3
    host tree_child     ; x
    mov  r1, r0
    host read_u64
    mov  r9, r0
    li   r5, 2
    bltu r9, r5, base
    ; e1 = strict(application([limits, fib, add, lit(x-1)]))
    addi r1, r9, -1
    host lit_u64
    mov  r10, r0
    li   r3, 0
    st32 r3, 0, r6
    st32 r3, 4, r7
    st32 r3, 8, r8
    st32 r3, 12, r10
    li   r1, 0
    li   r2, 4
    host create_tree
    mov  r1, r0
    host application
    mov  r1, r0
    host strict
    mov  r11, r0
    ; e2 = strict(application([limits, fib, add, lit(x-2)]))
    addi r1, r9, -2
    host lit_u64
    mov  r10, r0
    li   r3, 0
    st32 r3, 12, r10
    li   r1, 0
    li   r2, 4
    host create_tree
    mov  r1, r0
    host application
    mov  r1, r0
    host strict
    mov  r12, r0
    ; return application([limits, add, e1, e2])
    li   r3, 0
    st32 r3, 0, r6
    st32 r3, 4, r8
    st32 r3, 8, r11
    st32 r3, 12, r12
    li   r1, 0
    li   r2, 4
    host create_tree
    mov  r1, r0
    host application
    ret  r0
base:
    mov  r1, r9
    host lit_u64
    ret  r0
`

// ConcatSrc concatenates the two Blob arguments of [limits, fn, a, b].
const ConcatSrc = `
.memory 65536
    li   r1, 0
    li   r2, 2
    host tree_child
    mov  r6, r0
    li   r1, 0
    li   r2, 3
    host tree_child
    mov  r7, r0
    mov  r1, r6
    li   r2, 0
    host attach_blob    ; a at mem[0:lenA]
    mov  r8, r0
    mov  r1, r7
    mov  r2, r8
    host attach_blob    ; b at mem[lenA:]
    add  r2, r8, r0
    li   r1, 0
    host create_blob
    ret  r0
`

// Assembled bytecode for the standard codelets.
var (
	AddBytecode    = MustAssemble(AddSrc)
	IncBytecode    = MustAssemble(IncSrc)
	IfBytecode     = MustAssemble(IfSrc)
	FibBytecode    = MustAssemble(FibSrc)
	ConcatBytecode = MustAssemble(ConcatSrc)
)

// AddFunctionBlob returns the add codelet as a function Blob.
func AddFunctionBlob() []byte { return core.VMFunctionBlob(AddBytecode) }

// IncFunctionBlob returns the inc codelet as a function Blob.
func IncFunctionBlob() []byte { return core.VMFunctionBlob(IncBytecode) }

// IfFunctionBlob returns the if codelet as a function Blob.
func IfFunctionBlob() []byte { return core.VMFunctionBlob(IfBytecode) }

// FibFunctionBlob returns the fib codelet as a function Blob.
func FibFunctionBlob() []byte { return core.VMFunctionBlob(FibBytecode) }
