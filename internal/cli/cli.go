// Package cli holds small flag-parsing helpers shared by the command
// binaries.
package cli

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"fbf/internal/codes"
)

// SplitList splits a comma-separated list, trimming blanks and dropping
// empty elements.
func SplitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

// ParseInts parses a comma-separated list of integers.
func ParseInts(s string) ([]int, error) {
	var out []int
	for _, part := range SplitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("cli: %q is not an integer: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseIntsFlag is ParseInts with the offending flag named in the
// error, so binaries report "bad -p: ..." instead of a bare parse
// failure.
func ParseIntsFlag(flagName, s string) ([]int, error) {
	out, err := ParseInts(s)
	if err != nil {
		return nil, fmt.Errorf("bad -%s: %w", flagName, err)
	}
	return out, nil
}

// CheckCodes builds every code of names at every prime of primes, so a
// binary rejects a bad -codes/-p pair before its first run. The error
// names -codes for a family codes.New does not know and -p otherwise.
func CheckCodes(names []string, primes []int) error {
	for _, name := range names {
		for _, p := range primes {
			if _, err := codes.New(name, p); err != nil {
				flagName := "p"
				if !slices.Contains(codes.Names(), name) {
					flagName = "codes"
				}
				return fmt.Errorf("bad -%s: %w", flagName, err)
			}
		}
	}
	return nil
}

// CreateOutput creates (truncating) the output file a flag points at,
// validating writability up front so a long run cannot fail at write
// time; errors name the flag and reject directories and missing parent
// directories explicitly.
func CreateOutput(flagName, path string) (*os.File, error) {
	if path == "" {
		return nil, fmt.Errorf("bad -%s: empty output path", flagName)
	}
	if info, err := os.Stat(path); err == nil && info.IsDir() {
		return nil, fmt.Errorf("bad -%s: %q is a directory", flagName, path)
	}
	if dir := filepath.Dir(path); dir != "." {
		if info, err := os.Stat(dir); err != nil || !info.IsDir() {
			return nil, fmt.Errorf("bad -%s: output directory %q does not exist", flagName, dir)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("bad -%s: cannot create %q: %w", flagName, path, err)
	}
	return f, nil
}
