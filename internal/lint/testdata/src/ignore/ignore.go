// Package ignore is the golden corpus for the directive audit: directives
// that silence a finding, one that silences nothing, one made redundant by
// a function-level directive, one for an analyzer the test does not run,
// and one naming no analyzer at all.
package ignore

import (
	"errors"
	"fmt"
)

var errX = errors.New("x")

func used() error {
	return fmt.Errorf("for humans: %v", errX) //lint:ignore errwrap the message is display-only
}

func stale() error {
	//lint:ignore errwrap nothing left to silence // want `//lint:ignore errwrap suppresses no errwrap finding; delete it`
	return fmt.Errorf("wrapped: %w", errX)
}

//lint:ignore errwrap every error here is display-only
func redundant() error {
	return fmt.Errorf("twice: %v", errX) //lint:ignore errwrap covered above // want `suppresses no errwrap finding`
}

//lint:ignore hotalloc not a hot path, so there is nothing to silence // want `//lint:ignore hotalloc suppresses no hotalloc finding`
func cold() []int { return make([]int, 8) }

//lint:ignore goleak goleak does not run over this package, so this is not judged
func notRun() {}

//lint:ignore errwarp a misspelt analyzer silences nothing // want `//lint:ignore "errwarp" names no analyzer`
func typo() {}
