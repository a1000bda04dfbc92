//go:build !linux

package exec

import "errors"

// makeReadOnly needs /proc/self/fd and dup3.
func makeReadOnly(path string) error {
	return errors.New("replacing a descriptor is only implemented on Linux")
}
