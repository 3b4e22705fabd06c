package core

import "bytes"

// Function Blob conventions. An Application Thunk's second Tree entry is a
// Blob containing the function. Two encodings are understood by the
// runtime, mirroring the paper's two sources of safe machine code:
//
//   - FixVM codelets ("FIXVM\x00" + bytecode), the output of the trusted
//     toolchain (the stand-in for wasm2c/clang/lld-produced ELF codelets);
//   - named native procedures ("FIXGO\x00" + name), trusted built-ins
//     registered with the runtime (the stand-in for other trusted-
//     toolchain outputs such as the Flatware layer's helpers).
var (
	// MagicVM prefixes FixVM codelet Blobs.
	MagicVM = []byte("FIXVM\x00")
	// MagicNative prefixes named native procedure Blobs.
	MagicNative = []byte("FIXGO\x00")
)

// NativeFunctionBlob encodes a reference to a registered native procedure.
func NativeFunctionBlob(name string) []byte {
	return append(append([]byte{}, MagicNative...), name...)
}

// NativeFunctionName decodes a native function Blob. The name aliases
// blob; a map keyed by string(name) is indexed without a copy.
func NativeFunctionName(blob []byte) ([]byte, bool) {
	return bytes.CutPrefix(blob, MagicNative)
}

// VMFunctionBlob encodes a FixVM codelet Blob from assembled bytecode.
func VMFunctionBlob(bytecode []byte) []byte {
	return append(append([]byte{}, MagicVM...), bytecode...)
}

// VMBytecode decodes a FixVM codelet Blob.
func VMBytecode(blob []byte) ([]byte, bool) {
	if bytes.HasPrefix(blob, MagicVM) {
		return blob[len(MagicVM):], true
	}
	return nil, false
}

// InvocationTree assembles the canonical [limits, function, args...]
// definition Tree entries for an Application Thunk.
func InvocationTree(limits Handle, function Handle, args ...Handle) []Handle {
	entries := make([]Handle, 0, 2+len(args))
	entries = append(entries, limits, function)
	return append(entries, args...)
}
