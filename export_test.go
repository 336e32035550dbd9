package confanon

// MapperSources reports what the registry's mapper and Program-wide
// series are read from: the Session's IP mapping size and remap count,
// and the Program's ASN cycle walks.
func (a *Anonymizer) MapperSources() (entries, remaps, walks int64) {
	entries, remaps = a.sess.MapperCounts()
	return entries, remaps, a.prog.inner.CycleWalks()
}
