// Package main (testdata): a cmd-style tool discarding errors on its
// output paths — every case must be flagged.
package main // import "l15cache/cmd/errdrop"

import (
	"bufio"
	"os"
)

func writeReport(path string, lines []string) {
	f, err := os.Create(path)
	if err != nil {
		return
	}
	w := bufio.NewWriter(f)
	for _, l := range lines {
		w.WriteString(l) // want "error from \(\*bufio.Writer\).WriteString is silently discarded"
	}
	w.Flush() // want "error from \(\*bufio.Writer\).Flush is silently discarded"
	f.Close() // want "error from \(\*os.File\).Close is silently discarded"
}

func dropSingleError(path string, data []byte) {
	os.WriteFile(path, data, 0o644) // want "error from WriteFile is silently discarded"
}

func main() {
	writeReport("report.txt", []string{"ok"})
	dropSingleError("data.bin", nil)
}
