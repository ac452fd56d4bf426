package admission

import "embed"

// Source is this package's own source. nsgen (internal/gen) projects it
// into every framework generated with overload control (O9).
//
//go:embed admission.go
var Source embed.FS
