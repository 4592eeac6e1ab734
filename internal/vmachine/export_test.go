package vmachine

// RunLengths returns, for every instruction of tab's program, the length
// of the superblock run that starts there.
func RunLengths(tab *DispatchTable) []int {
	out := make([]int, len(tab.entries))
	for i, e := range tab.entries {
		out[i] = int(e.n)
	}
	return out
}
