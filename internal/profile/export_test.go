package profile

// Recorded returns how many traces Label has recorded for p.
func Recorded(p *Profile) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.recorded)
}
