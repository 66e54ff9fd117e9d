package coherlock

import "syncron/internal/coherence"

// Space exposes the coherence model for stats.
func (b *Backend) Space() *coherence.Space { return b.space }
