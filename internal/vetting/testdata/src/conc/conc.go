// Package conc exercises the concurrency-hygiene pass.
package conc

import "sync"

// WaitUnderLock blocks on a WaitGroup with the mutex held.
func WaitUnderLock(mu *sync.Mutex, wg *sync.WaitGroup) {
	mu.Lock()
	wg.Wait() // want `while holding mu`
	mu.Unlock()
}

// SendUnderLock sends on a channel with the mutex held.
func SendUnderLock(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	ch <- 1 // want `channel send while holding mu`
	mu.Unlock()
}

// CleanWait releases before blocking.
func CleanWait(mu *sync.Mutex, wg *sync.WaitGroup) {
	mu.Lock()
	mu.Unlock()
	wg.Wait()
}

// CondWait is the opposite discipline and must stay silent.
func CondWait(c *sync.Cond) {
	c.L.Lock()
	c.Wait()
	c.L.Unlock()
}
