// Package main (testdata): the sanctioned error-handling patterns —
// checked returns, explicit _ = discards, deferred read-path Close,
// never-fails builders. Nothing here may be flagged.
package main // import "l15cache/cmd/errdrop"

import (
	"bufio"
	"fmt"
	"os"
	"strings"
)

func writeReport(path string, lines []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, l := range lines {
		if _, err := w.WriteString(l); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func readAll(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // deferred Close on a read path is idiomatic
	return os.ReadFile(path)
}

func render(lines []string) string {
	var sb strings.Builder
	for _, l := range lines {
		sb.WriteString(l) // *strings.Builder never fails
	}
	return sb.String()
}

func main() {
	fmt.Println("stdout printing is exempt")
	if err := writeReport("report.txt", []string{"ok"}); err != nil {
		os.Exit(1)
	}
	if _, err := readAll("report.txt"); err != nil {
		os.Exit(1)
	}
	_ = render(nil)
}
