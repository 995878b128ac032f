package fabric

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
)

// liveByFilter is the definition the live index must reproduce: every
// service ever created, filtered by Alive, in name order.
func liveByFilter(c *Cluster) []*Service {
	var out []*Service
	for _, s := range c.Services() {
		if s.Alive() {
			out = append(out, s)
		}
	}
	return out
}

// TestLiveIndexProperty drives random create, drop and re-create-same-name
// sequences and checks after every operation that EachLiveService walks
// exactly the filtered, name-sorted service set, that the copies and the
// count agree, and that slots are unique among live services and held
// by exactly them in the slot table.
func TestLiveIndexProperty(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		c := newTestCluster(t, 8, 1.0)
		r := rand.New(rand.NewPCG(seed, 99))
		for op := 0; op < 1500; op++ {
			name := fmt.Sprintf("db-%02d", r.IntN(40))
			if s, ok := c.Service(name); ok && s.Alive() {
				if err := c.DropService(name); err != nil {
					t.Fatalf("seed %d op %d: drop %s: %v", seed, op, name, err)
				}
			} else if _, err := c.CreateService(name, 1+r.IntN(2)*3, 1, nil); err != nil {
				t.Fatalf("seed %d op %d: create %s: %v", seed, op, name, err)
			}

			want := liveByFilter(c)
			var got []*Service
			c.EachLiveService(func(s *Service) { got = append(got, s) })
			if len(got) != len(want) || c.LiveServiceCount() != len(want) {
				t.Fatalf("seed %d op %d: walked %d, counted %d, want %d live",
					seed, op, len(got), c.LiveServiceCount(), len(want))
			}
			copied := c.LiveServices()
			slots := make(map[int]string, len(want))
			for i := range want {
				if got[i] != want[i] || copied[i] != want[i] {
					t.Fatalf("seed %d op %d: position %d walked %s, copied %s, want %s",
						seed, op, i, got[i].Name, copied[i].Name, want[i].Name)
				}
				if other, dup := slots[want[i].Slot()]; dup {
					t.Fatalf("seed %d op %d: %s and %s share slot %d",
						seed, op, other, want[i].Name, want[i].Slot())
				}
				slots[want[i].Slot()] = want[i].Name
				if c.bySlot[want[i].Slot()] != want[i] {
					t.Fatalf("seed %d op %d: slot table misses %s", seed, op, want[i].Name)
				}
			}
			held := 0
			for _, s := range c.bySlot {
				if s != nil {
					held++
				}
			}
			if held != len(want) {
				t.Fatalf("seed %d op %d: slot table holds %d services, want %d live", seed, op, held, len(want))
			}
		}
		// Recycling keeps the slot space as small as the peak live count.
		if len(c.bySlot) > 40 {
			t.Errorf("seed %d: %d slots handed out for at most 40 live services", seed, len(c.bySlot))
		}
	}
}

// TestEachLiveServicePanicsOnMutation pins the sweep contract: fn may
// neither create nor drop a service, and the panic names the service.
func TestEachLiveServicePanicsOnMutation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(c *Cluster)
	}{
		{"db-new", func(c *Cluster) { _, _ = c.CreateService("db-new", 1, 1, nil) }},
		{"db-a", func(c *Cluster) { _ = c.DropService("db-a") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, 4, 1.0)
			for _, n := range []string{"db-a", "db-b"} {
				if _, err := c.CreateService(n, 1, 1, nil); err != nil {
					t.Fatal(err)
				}
			}
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "service "+tc.name+" created or dropped during EachLiveService") {
					t.Fatalf("panic = %q, want one naming %s", msg, tc.name)
				}
			}()
			c.EachLiveService(func(*Service) { tc.mutate(c) })
			t.Fatal("EachLiveService did not panic")
		})
	}
}

// TestLiveIndexZeroAlloc pins the sweeps at zero allocations, and index
// maintenance too once the index and free list have reached their
// working size.
func TestLiveIndexZeroAlloc(t *testing.T) {
	c := newTestCluster(t, 8, 1.0)
	for i := 0; i < 50; i++ {
		if _, err := c.CreateService(fmt.Sprintf("db-%02d", i), 1, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if a := testing.AllocsPerRun(100, func() {
		c.EachLiveService(func(*Service) { n++ })
	}); a != 0 {
		t.Errorf("EachLiveService allocates %.1f per sweep", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := CheckInvariants(c); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("CheckInvariants allocates %.1f per check", a)
	}
	svc, _ := c.Service("db-25")
	if a := testing.AllocsPerRun(100, func() {
		c.removeLive(svc)
		c.addLive(svc)
	}); a != 0 {
		t.Errorf("steady-state index drop+create allocates %.1f", a)
	}
}
