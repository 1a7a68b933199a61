package comm

import (
	"fmt"
	"testing"

	"repro/internal/phys"
)

func TestIsendIrecvBasic(t *testing.T) {
	_, err := Run(2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			r := c.Isend(1, 3, []byte("async"))
			r.Wait()
		} else {
			r := c.Irecv(0, 3)
			if got := string(r.Wait()); got != "async" {
				return fmt.Errorf("got %q", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendBeyondMailboxCapacity(t *testing.T) {
	// Flood far past the mailbox buffer: Isend must not deadlock the
	// sender; the overflow goroutines drain as the receiver consumes.
	const count = mailboxCap * 4
	_, err := Run(2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			reqs := make([]*Request, count)
			for i := 0; i < count; i++ {
				reqs[i] = c.Isend(1, i, []byte{byte(i)})
			}
			for _, r := range reqs {
				r.Wait()
			}
		} else {
			for i := 0; i < count; i++ {
				got := c.Recv(0, i)
				if got[0] != byte(i) {
					return fmt.Errorf("message %d corrupted: %v", i, got)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvOverlapRunsCallback(t *testing.T) {
	const p = 8
	_, err := Run(p, Options{}, func(c *Comm) error {
		data := []phys.Particle{{ID: uint32(c.Rank())}}
		ran := false
		got := c.SendrecvParticlesOverlap((c.Rank()+1)%p, data, (c.Rank()+p-1)%p, 0, func() { ran = true })
		if !ran {
			return fmt.Errorf("overlap callback skipped")
		}
		if want := uint32((c.Rank() + p - 1) % p); got[0].ID != want {
			return fmt.Errorf("got payload from %d, want %d", got[0].ID, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvOverlapSingleRank(t *testing.T) {
	_, err := Run(1, Options{}, func(c *Comm) error {
		ran := false
		out := c.SendrecvParticlesOverlap(0, []phys.Particle{{ID: 7}}, 0, 0, func() { ran = true })
		if !ran || out[0].ID != 7 {
			return fmt.Errorf("degenerate overlap broken: ran=%v out=%v", ran, out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendAbortUnwinds(t *testing.T) {
	_, err := Run(2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			// Fill the mailbox so an Isend goroutine parks, then fail.
			for i := 0; i < mailboxCap+2; i++ {
				c.Isend(1, i, []byte{1})
			}
			return fmt.Errorf("deliberate failure")
		}
		// Rank 1 never receives; the abort must release everything.
		c.Recv(0, 9999)
		return nil
	})
	if err == nil {
		t.Fatal("expected the deliberate failure to surface")
	}
}
