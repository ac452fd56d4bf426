package events

import "embed"

// Source is this package's own source. nsgen (internal/gen) projects it
// into every generated framework: the Event model, the FIFO queue and,
// under event scheduling, the priority queue.
//
//go:embed events.go queue.go priority.go
var Source embed.FS
