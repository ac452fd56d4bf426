package nserver

import "embed"

// Source holds the parts of this package nsgen (internal/gen) projects
// into generated frameworks: the connection lifecycle table, and the
// TCP_NOTSENT_LOWAT helper of a framework with a write bound.
//
//go:embed lifecycle.go lowat_linux.go lowat_other.go
var Source embed.FS
