package client

// Per-peer circuit breaker (DESIGN.md §15). A peer that fails
// BreakerThreshold consecutive times is quarantined: the hedged chunk
// ladder ranks it below every healthy rung until its cooldown lapses,
// then admits exactly one half-open probe stream. A successful probe
// closes the breaker; a failed one re-opens it with a doubled cooldown,
// capped at maxBreakerCooldown. The breaker only orders the hedged
// ladder — the unhedged one launches every rung regardless, and a
// hedged ladder that runs dry tries its quarantined rungs too, so a
// client with no healthy alternatives still tries every peer it knows.

import "time"

// Breaker defaults for Options fields left zero.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 2 * time.Second

	// maxBreakerCooldown caps the doubling so a long-sick peer is
	// re-probed at least this often.
	maxBreakerCooldown = 30 * time.Second
)

// breakerState is one peer's circuit position.
type breakerState uint8

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// allowLocked reports whether the peer may be handed work right now:
// always when closed, after the cooldown when open (as a probe
// candidate), and in half-open only while its single probe slot is
// unclaimed. Read-only — claiming the slot is beginProbe's job.
func (p *peerHealth) allowLocked(now time.Time) bool {
	switch p.state {
	case breakerOpen:
		return !now.Before(p.openUntil)
	case breakerHalfOpen:
		return !p.probing
	default:
		return true
	}
}

// tripLocked applies one failure to the breaker. From half-open the
// probe has failed: re-open with a doubled cooldown. From closed, open
// once the consecutive-failure run reaches the threshold. Returns true
// when this failure newly opened a closed breaker (the caller accounts
// the transition outside the lock).
func (p *peerHealth) tripLocked(now time.Time, threshold int, cooldown time.Duration) bool {
	switch p.state {
	case breakerHalfOpen:
		p.state = breakerOpen
		p.probing = false
		p.cooldown *= 2
		if p.cooldown > maxBreakerCooldown {
			p.cooldown = maxBreakerCooldown
		}
		p.openUntil = now.Add(p.cooldown)
	case breakerClosed:
		if p.consecFails >= threshold {
			p.state = breakerOpen
			p.cooldown = cooldown
			p.openUntil = now.Add(cooldown)
			return true
		}
	}
	return false
}

// closeBreakerLocked resets the circuit on success. Returns true when
// the breaker was open or half-open (a recovery the caller accounts).
func (p *peerHealth) closeBreakerLocked() bool {
	if p.state == breakerClosed {
		return false
	}
	p.state = breakerClosed
	p.probing = false
	p.cooldown = 0
	return true
}

// beginProbe claims addr's single half-open probe slot, transitioning a
// cooled-down open breaker to half-open. Returns true when the caller
// now owns the probe and should launch exactly one stream; false when
// the peer is healthy (no probe needed), still cooling down, or another
// chunk's scheduler already holds the slot.
func (h *healthRegistry) beginProbe(addr string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.peers[addr]
	if !ok {
		return false
	}
	now := h.now()
	if p.state == breakerOpen && !now.Before(p.openUntil) {
		p.state = breakerHalfOpen
		p.probing = true
		h.m.breakerProbes.Inc()
		return true
	}
	if p.state == breakerHalfOpen && !p.probing {
		p.probing = true
		h.m.breakerProbes.Inc()
		return true
	}
	return false
}
