package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlight pins the single-flight the Runner and the fabric router
// share: duplicates run fn once, an owner's cancellation makes a live
// waiter the next owner, and a waiter's own cancellation ends only that
// waiter.
func TestFlight(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, g *Flight[int])
	}{
		{"concurrent callers run fn once", func(t *testing.T, g *Flight[int]) {
			const callers = 8
			var calls atomic.Int32
			entered, release := make(chan struct{}), make(chan struct{})
			fn := func() (int, error) {
				if calls.Add(1) == 1 {
					close(entered)
				}
				<-release
				return 42, nil
			}
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				if i == 1 {
					<-entered // the first caller owns the key
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					v, err := g.Do(context.Background(), "k", fn)
					if v != 42 || err != nil {
						t.Errorf("caller %d: %d, %v", i, v, err)
					}
				}(i)
			}
			time.Sleep(20 * time.Millisecond) // let the waiters block
			close(release)
			wg.Wait()
			if n := calls.Load(); n != 1 {
				t.Fatalf("fn ran %d times for %d concurrent callers", n, callers)
			}
		}},
		{"cancelled owner hands over to a live waiter", func(t *testing.T, g *Flight[int]) {
			ownerCtx, cancelOwner := context.WithCancel(context.Background())
			entered := make(chan struct{})
			ownerErr := make(chan error, 1)
			go func() {
				_, err := g.Do(ownerCtx, "k", func() (int, error) {
					close(entered)
					<-ownerCtx.Done()
					return 0, fmt.Errorf("owner: %w", ownerCtx.Err())
				})
				ownerErr <- err
			}()
			<-entered
			waiter := make(chan error, 1)
			var got int
			go func() {
				var err error
				got, err = g.Do(context.Background(), "k", func() (int, error) { return 7, nil })
				waiter <- err
			}()
			time.Sleep(20 * time.Millisecond) // let the waiter block
			cancelOwner()
			if err := <-ownerErr; !errors.Is(err, context.Canceled) {
				t.Fatalf("owner error %v, want its cancellation", err)
			}
			if err := <-waiter; err != nil || got != 7 {
				t.Fatalf("waiter got %d err=%v, want its own run's 7", got, err)
			}
		}},
		{"cancelled waiter returns while the owner runs on", func(t *testing.T, g *Flight[int]) {
			entered, release := make(chan struct{}), make(chan struct{})
			owner := make(chan int, 1)
			go func() {
				v, _ := g.Do(context.Background(), "k", func() (int, error) {
					close(entered)
					<-release
					return 42, nil
				})
				owner <- v
			}()
			<-entered
			ctx, cancel := context.WithCancel(context.Background())
			waiter := make(chan error, 1)
			go func() {
				_, err := g.Do(ctx, "k", func() (int, error) {
					t.Error("a waiter ran fn while the owner was live")
					return 0, nil
				})
				waiter <- err
			}()
			cancel()
			select {
			case err := <-waiter:
				if err != context.Canceled {
					t.Fatalf("waiter error %v, want its own context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("cancelled waiter still waiting on the owner")
			}
			select {
			case v := <-owner:
				t.Fatalf("owner returned %d before its fn finished", v)
			default:
			}
			close(release)
			if v := <-owner; v != 42 {
				t.Fatalf("owner got %d, want 42", v)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, new(Flight[int])) })
	}
}
