package exec

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
)

// makeReadOnly puts a read-only descriptor of path in place of every
// descriptor this process has open on it, so that writing through them fails
// from then on while reading and closing still work.
func makeReadOnly(path string) error {
	ro, err := os.Open(path)
	if err != nil {
		return err
	}
	defer ro.Close()
	links, err := filepath.Glob("/proc/self/fd/*")
	if err != nil {
		return err
	}
	replaced := 0
	for _, link := range links {
		fd, err := strconv.Atoi(filepath.Base(link))
		if err != nil || fd == int(ro.Fd()) {
			continue
		}
		if target, err := os.Readlink(link); err != nil || target != path {
			continue
		}
		if err := syscall.Dup3(int(ro.Fd()), fd, syscall.O_CLOEXEC); err != nil {
			return err
		}
		replaced++
	}
	if replaced == 0 {
		return fmt.Errorf("no descriptor open on %s", path)
	}
	return nil
}
