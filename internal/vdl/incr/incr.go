// Package incr is a compatibility alias for the one view engine,
// vdl.MCVA, kept only because the frozen bench/ module still imports
// it. It holds no logic; delete it with the next benchmark PR (see
// ROADMAP.md).
package incr

import (
	"mbd/internal/mib"
	"mbd/internal/vdl"
)

// Config names the tree and schema New passes to vdl.NewMCVA.
type Config struct {
	Tree   *mib.Tree
	Schema *vdl.Schema
}

// IncrMCVA is vdl.MCVA.
type IncrMCVA = vdl.MCVA

// New is vdl.NewMCVA(cfg.Tree, cfg.Schema).
func New(cfg Config) *IncrMCVA { return vdl.NewMCVA(cfg.Tree, cfg.Schema) }
