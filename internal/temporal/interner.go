package temporal

// Interner maps external string node identifiers (bitcoin addresses, user
// names, taxi zone codes, ...) onto the dense NodeIDs the graph requires.
// The zero value is not usable; construct with NewInterner.
type Interner struct {
	ids    map[string]NodeID
	labels []string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]NodeID)}
}

// ID returns the dense id for label, allocating the next id on first sight.
func (in *Interner) ID(label string) NodeID {
	if id, ok := in.ids[label]; ok {
		return id
	}
	id := NodeID(len(in.labels))
	in.ids[label] = id
	in.labels = append(in.labels, label)
	return id
}

// Lookup returns the id for label without allocating.
func (in *Interner) Lookup(label string) (NodeID, bool) {
	id, ok := in.ids[label]
	return id, ok
}

// Label returns the original label of id; it panics on out-of-range ids.
func (in *Interner) Label(id NodeID) string { return in.labels[id] }

// Len returns the number of interned labels.
func (in *Interner) Len() int { return len(in.labels) }
