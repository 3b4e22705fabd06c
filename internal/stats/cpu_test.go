package stats

import (
	"sync"
	"testing"
	"time"
)

func TestUsageAccounting(t *testing.T) {
	c := NewCollector(4)
	c.AddUser(2 * time.Second)
	c.AddSystem(1 * time.Second)
	c.AddIOWait(3 * time.Second)
	c.AddTask()
	c.AddTask()
	u := c.Usage(10 * time.Second)
	if u.Idle != 40*time.Second-6*time.Second {
		t.Fatalf("idle = %v", u.Idle)
	}
	// waiting = (iowait + idle) / total = (3 + 34) / 40
	want := 100 * float64(37) / 40
	if got := u.WaitingPct(); got < want-0.01 || got > want+0.01 {
		t.Fatalf("waiting = %.2f, want %.2f", got, want)
	}
	if u.Tasks != 2 {
		t.Fatalf("tasks = %d", u.Tasks)
	}
}

func TestIdleNeverNegative(t *testing.T) {
	c := NewCollector(1)
	c.AddUser(5 * time.Second)
	u := c.Usage(1 * time.Second)
	if u.Idle != 0 {
		t.Fatalf("idle = %v, want 0", u.Idle)
	}
}

func TestMerge(t *testing.T) {
	a := Usage{Cores: 2, Wall: 3 * time.Second, User: time.Second, Tasks: 5}
	b := Usage{Cores: 2, Wall: 5 * time.Second, IOWait: 2 * time.Second, Tasks: 7}
	m := Merge(a, b)
	if m.Cores != 4 || m.Wall != 5*time.Second || m.User != time.Second || m.IOWait != 2*time.Second || m.Tasks != 12 {
		t.Fatalf("merge = %+v", m)
	}
}

func TestConcurrentCollector(t *testing.T) {
	c := NewCollector(8)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.AddUser(time.Millisecond)
				c.AddSystem(time.Millisecond)
				c.AddIOWait(time.Millisecond)
				c.AddTask()
			}
		}()
	}
	wg.Wait()
	u := c.Usage(time.Hour)
	if u.User != 1600*time.Millisecond || u.Tasks != 1600 {
		t.Fatalf("usage = %+v", u)
	}
}

func TestResetAndString(t *testing.T) {
	c := NewCollector(2)
	c.AddUser(time.Second)
	c.Reset()
	u := c.Usage(time.Second)
	if u.User != 0 {
		t.Fatal("reset failed")
	}
	if NewCollector(0).cores != 1 {
		t.Fatal("cores floor")
	}
}

func TestZeroWall(t *testing.T) {
	var u Usage
	if u.WaitingPct() != 0 {
		t.Fatal("zero usage should report zeros")
	}
}
