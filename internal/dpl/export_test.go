package dpl

// StructureProved reports whether c carries a recorded structural
// proof, which a Run trusts instead of proving the structure again.
func (c *Compiled) StructureProved() bool {
	c.vmu.Lock()
	defer c.vmu.Unlock()
	return c.vdone && c.verr == nil
}
