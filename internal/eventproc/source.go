package eventproc

import "embed"

// Source is the part of this package nsgen (internal/gen) projects into
// every framework generated with overload control (O9): the watermarks.
//
//go:embed overload.go
var Source embed.FS
