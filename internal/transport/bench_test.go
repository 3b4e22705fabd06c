package transport

import (
	"bytes"
	"testing"
)

// BenchmarkEcho is the hop ladder's bottom rung: one frame over loopback
// TCP to a peer that sends it straight back. An op is a Send and a Recv on
// each side; the rungs above it add their own work to this floor.
func BenchmarkEcho(b *testing.B) {
	for _, size := range []struct {
		name  string
		bytes int
	}{{"64B", 64}, {"4KiB", 4 << 10}, {"256KiB", 256 << 10}} {
		b.Run(size.name, func(b *testing.B) {
			a, c := tcpPair(b)
			client, server := NewTCP(a), NewTCP(c)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					msg, err := server.Recv()
					if err != nil || server.Send(msg) != nil {
						return
					}
				}
			}()
			frame := bytes.Repeat([]byte{1}, size.bytes)
			b.SetBytes(int64(size.bytes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := client.Send(frame); err != nil {
					b.Fatal(err)
				}
				if _, err := client.Recv(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			client.Close()
			<-done
		})
	}
}
