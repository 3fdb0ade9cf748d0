package comm

import (
	"fmt"
	"sync"
	"testing"
)

// benchWorld runs fn on every rank of a world and waits; helper for
// collective benchmarks.
func benchWorld(b *testing.B, size int, fn func(c *Comm) error) {
	b.Helper()
	world, err := NewWorld(size, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer world.Close()
	comms := make([]*Comm, size)
	for r := 0; r < size; r++ {
		comms[r] = New(world.Transport(r))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make([]error, size)
		for r := 0; r < size; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				errs[rank] = fn(comms[rank])
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkPingPong(b *testing.B) {
	for _, size := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			payload := make([]byte, size)
			b.SetBytes(int64(size) * 2)
			benchWorld(b, 2, func(c *Comm) error {
				if c.Rank() == 0 {
					if err := c.Send(1, 0, payload); err != nil {
						return err
					}
					_, err := c.Recv(1, 0)
					return err
				}
				buf, err := c.Recv(0, 0)
				if err != nil {
					return err
				}
				return c.Send(0, 0, buf)
			})
		})
	}
}

func BenchmarkBarrier(b *testing.B) {
	for _, p := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchWorld(b, p, func(c *Comm) error { return c.Barrier() })
		})
	}
}

func BenchmarkAlltoall(b *testing.B) {
	for _, p := range []int{4, 16} {
		for _, size := range []int{256, 16384} {
			b.Run(fmt.Sprintf("p=%d/bytes=%d", p, size), func(b *testing.B) {
				payload := make([]byte, size)
				b.SetBytes(int64(p) * int64(p) * int64(size))
				benchWorld(b, p, func(c *Comm) error {
					parts := make([][]byte, p)
					for i := range parts {
						parts[i] = payload
					}
					_, err := c.Alltoall(parts)
					return err
				})
			})
		}
	}
}

func BenchmarkAllgather(b *testing.B) {
	const p, size = 8, 4096
	payload := make([]byte, size)
	benchWorld(b, p, func(c *Comm) error {
		_, err := c.Allgather(payload)
		return err
	})
}
