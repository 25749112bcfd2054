package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// provenance says what a record was measured with. The host fields must
// match for two records to be compared; the build fields say which code
// ran.
type provenance struct {
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	NProc  int    `json:"nproc"`
	// GOMAXPROCS are the settings the timed runs used.
	GOMAXPROCS []int `json:"gomaxprocs"`
	// FS is the filesystem type of the scratch directory, which holds the
	// store workload's cache directories.
	FS     string `json:"fs"`
	Binary string `json:"ncdrf_sha256"`
	Git    string `json:"git_head,omitempty"`
}

// host is the part of the provenance that must match for records to be
// comparable.
func (p provenance) host() string {
	return fmt.Sprintf("%s %s/%s nproc=%d fs=%s", p.Go, p.GOOS, p.GOARCH, p.NProc, p.FS)
}

func (b *bench) provenance(ctx context.Context) (provenance, error) {
	p := provenance{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: b.nproc, GOMAXPROCS: []int{b.nproc, 1}, FS: fsType(b.work),
	}
	f, err := os.Open(b.bin)
	if err != nil {
		return p, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return p, err
	}
	p.Binary = hex.EncodeToString(h.Sum(nil))
	// A checkout without .git (an exported tree) has no revision to record.
	if _, err := os.Stat(filepath.Join(b.root, ".git")); err == nil {
		cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
		cmd.Dir = b.root
		if out, err := cmd.Output(); err == nil {
			p.Git = strings.TrimSpace(string(out))
		}
	}
	return p, nil
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
