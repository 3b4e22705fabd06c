package proto

import (
	"testing"

	"fixgo/internal/core"
)

// ladderFrames are the two frames of one delegation of a fresh add: the
// Job pushing its invocation tree, and the literal Result answering it.
func ladderFrames() []*Message {
	add := core.BlobHandle([]byte("add codelet stand-in, long enough to be hashed"))
	entries := core.InvocationTree(core.DefaultLimits.Handle(), add, core.LiteralU64(40), core.LiteralU64(7))
	tree := core.TreeHandle(entries)
	thunk, _ := core.Application(tree)
	enc, _ := core.Strict(thunk)
	return []*Message{
		{Type: TypeJob, From: "client", Handle: enc, Hops: 1, Pushed: []PushedObject{{Handle: tree, Data: core.EncodeTree(entries)}}},
		{Type: TypeResult, From: "worker", Handle: enc, Result: core.LiteralU64(47), EvalNS: 12345},
	}
}

var ladderNames = []string{"job", "result"}

// BenchmarkEncode encodes each ladder frame onto a reused scratch buffer,
// as a peer's send does.
func BenchmarkEncode(b *testing.B) {
	for i, m := range ladderFrames() {
		b.Run(ladderNames[i], func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for b.Loop() {
				buf = m.AppendEncode(buf[:0])
			}
		})
	}
}

// BenchmarkDecode decodes each ladder frame into a reused message with the
// sender's ID as the hint, as a link's receive loop does.
func BenchmarkDecode(b *testing.B) {
	for i, m := range ladderFrames() {
		b.Run(ladderNames[i], func(b *testing.B) {
			raw := m.Encode()
			var into Message
			b.ReportAllocs()
			for b.Loop() {
				if err := DecodeInto(&into, raw, m.From); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
