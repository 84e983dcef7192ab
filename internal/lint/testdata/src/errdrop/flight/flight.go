// Package flight (testdata): the recorder's export/codec paths get the
// strict errdrop treatment — a dropped Write or io.Copy error means a
// truncated artifact that still reports success. `_ =` stays the visible
// opt-out, and read-side defers stay legal.
package flight // import "l15cache/internal/flight"

import (
	"io"
	"os"
)

// Export streams the ring to a file: every dropped error is a silently
// truncated artifact.
func Export(dst *os.File, src io.Reader, header []byte) {
	dst.Write(header)      // want "error from \(\*os.File\).Write is silently discarded"
	io.Copy(dst, src)      // want "error from Copy is silently discarded"
	io.CopyN(dst, src, 16) // want "error from CopyN is silently discarded"
	dst.Sync()             // want "error from \(\*os.File\).Sync is silently discarded"
}

// ExportChecked is the same path done right: no findings.
func ExportChecked(dst *os.File, src io.Reader, header []byte) error {
	if _, err := dst.Write(header); err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		return err
	}
	return dst.Sync()
}

// Drain documents a deliberate drop with the `_ =` opt-out: legal.
func Drain(dst io.Writer, src io.Reader) {
	_, _ = io.Copy(dst, src)
}
