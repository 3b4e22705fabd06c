// Package bptree implements the B+-tree key-value store of the paper's
// section 5.4 (Fig. 9, Table 2): the tree is represented on "disk" as Fix
// Trees, and lookups traverse it node-by-node. Each traversal step's
// minimum repository contains only the current node's key array — the
// node trees themselves are reached through Selection Thunks (strict for
// the keys needed now, shallow for the subtree needed later), so the data
// accessed per step is O(arity × key size) no matter how large the tree.
package bptree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"fixgo/internal/core"
	"fixgo/internal/runtime"
)

// Keys blob encoding: [isLeaf u8][count u32] then per key [len u16][bytes].

// EncodeKeys packs a node's key array.
func EncodeKeys(isLeaf bool, keys []string) []byte {
	buf := make([]byte, 0, 5+len(keys)*8)
	if isLeaf {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(k)))
		buf = append(buf, k...)
	}
	return buf
}

// DecodeKeys unpacks a node's key array.
func DecodeKeys(data []byte) (isLeaf bool, keys []string, err error) {
	if len(data) < 5 {
		return false, nil, fmt.Errorf("bptree: keys blob too short")
	}
	isLeaf = data[0] == 1
	n := binary.LittleEndian.Uint32(data[1:5])
	data = data[5:]
	keys = make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(data) < 2 {
			return false, nil, fmt.Errorf("bptree: truncated keys blob")
		}
		l := int(binary.LittleEndian.Uint16(data))
		data = data[2:]
		if len(data) < l {
			return false, nil, fmt.Errorf("bptree: truncated key")
		}
		keys = append(keys, string(data[:l]))
		data = data[l:]
	}
	return isLeaf, keys, nil
}

// ChildIndex picks the child to descend into: the last child whose
// minimum key is ≤ key.
func ChildIndex(keys []string, key string) (int, bool) {
	i := sort.SearchStrings(keys, key)
	if i < len(keys) && keys[i] == key {
		return i, true
	}
	return i - 1, i > 0
}

// Root describes a built tree.
type Root struct {
	// Node is the root node's Tree handle.
	Node core.Handle
	// Keys is the root node's keys Blob handle.
	Keys core.Handle
	// Depth is the number of levels (1 = a single leaf).
	Depth int
	// Arity is the build fan-out.
	Arity int
}

// Build constructs a B+-tree of the given arity over sorted keys and
// values. Node layout: Tree[keysBlob, child0, child1, ...]; leaves hold
// value Blobs as children, internal nodes hold child node Trees, and an
// internal node's keys are its children's minimum keys.
func Build(st core.Store, arity int, keys []string, values [][]byte) (Root, error) {
	if arity < 2 {
		return Root{}, fmt.Errorf("bptree: arity must be ≥ 2, got %d", arity)
	}
	if len(keys) != len(values) || len(keys) == 0 {
		return Root{}, fmt.Errorf("bptree: need equal, nonzero keys and values (%d, %d)", len(keys), len(values))
	}
	if !sort.StringsAreSorted(keys) {
		return Root{}, fmt.Errorf("bptree: keys must be sorted")
	}

	type node struct {
		tree core.Handle
		keys core.Handle
		min  string
	}

	// Leaves.
	var level []node
	for i := 0; i < len(keys); i += arity {
		end := min(i+arity, len(keys))
		kb := st.PutBlob(EncodeKeys(true, keys[i:end]))
		entries := []core.Handle{kb}
		for _, v := range values[i:end] {
			entries = append(entries, st.PutBlob(v))
		}
		tree, err := st.PutTree(entries)
		if err != nil {
			return Root{}, err
		}
		level = append(level, node{tree: tree, keys: kb, min: keys[i]})
	}
	depth := 1
	for len(level) > 1 {
		var next []node
		for i := 0; i < len(level); i += arity {
			end := min(i+arity, len(level))
			group := level[i:end]
			mins := make([]string, len(group))
			entries := []core.Handle{{}}
			for j, child := range group {
				mins[j] = child.min
				entries = append(entries, child.tree)
			}
			kb := st.PutBlob(EncodeKeys(false, mins))
			entries[0] = kb
			tree, err := st.PutTree(entries)
			if err != nil {
				return Root{}, err
			}
			next = append(next, node{tree: tree, keys: kb, min: group[0].min})
		}
		level = next
		depth++
	}
	return Root{Node: level[0].tree, Keys: level[0].keys, Depth: depth, Arity: arity}, nil
}

// GetDirect looks a key up by walking the stored tree host-side (used to
// verify the Fix and Ray traversals).
func GetDirect(st core.Store, root Root, key string) ([]byte, error) {
	node := root.Node
	for {
		entries, err := st.Tree(node)
		if err != nil {
			return nil, err
		}
		kb, err := st.Blob(entries[0])
		if err != nil {
			return nil, err
		}
		isLeaf, keys, err := DecodeKeys(kb)
		if err != nil {
			return nil, err
		}
		if isLeaf {
			i := sort.SearchStrings(keys, key)
			if i >= len(keys) || keys[i] != key {
				return nil, fmt.Errorf("bptree: key %q not found", key)
			}
			return st.Blob(entries[1+i])
		}
		i, ok := ChildIndex(keys, key)
		if !ok {
			return nil, fmt.Errorf("bptree: key %q below minimum", key)
		}
		node = entries[1+i]
	}
}

// GetProcName is the registry name of the Fix traversal step.
const GetProcName = "bptree/get"

// Register installs the traversal procedure.
//
// bptree/get: [limits, fn, key, keysBlob, nodeRef] — keysBlob is the
// current node's key array (accessible); nodeRef is the current node's
// Tree as an inaccessible Ref. A step either returns
// strict(selection(nodeRef, 1+i)) for the value at a leaf, or a new
// Application whose input strictly selects the child's keys and shallowly
// selects the child itself — Algorithm 3's shape, applied to a B+-tree.
func Register(reg *runtime.Registry) {
	reg.RegisterFunc(GetProcName, func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		if len(entries) != 5 {
			return core.Handle{}, fmt.Errorf("bptree/get: want 5 entries, got %d", len(entries))
		}
		keyRaw, err := api.AttachBlob(entries[2])
		if err != nil {
			return core.Handle{}, err
		}
		kb, err := api.AttachBlob(entries[3])
		if err != nil {
			return core.Handle{}, err
		}
		nodeRef := entries[4]
		isLeaf, keys, err := DecodeKeys(kb)
		if err != nil {
			return core.Handle{}, err
		}
		key := string(keyRaw)
		if isLeaf {
			i := sort.SearchStrings(keys, key)
			if i >= len(keys) || keys[i] != key {
				return core.Handle{}, fmt.Errorf("bptree/get: key %q not found", key)
			}
			sel, err := api.Selection(nodeRef, uint64(1+i))
			if err != nil {
				return core.Handle{}, err
			}
			return api.Strict(sel)
		}
		i, ok := ChildIndex(keys, key)
		if !ok {
			return core.Handle{}, fmt.Errorf("bptree/get: key %q below minimum", key)
		}
		childSel, err := api.Selection(nodeRef, uint64(1+i))
		if err != nil {
			return core.Handle{}, err
		}
		childKeysSel, err := api.Selection(childSel, 0)
		if err != nil {
			return core.Handle{}, err
		}
		e1, err := api.Strict(childKeysSel)
		if err != nil {
			return core.Handle{}, err
		}
		e2, err := api.Shallow(childSel)
		if err != nil {
			return core.Handle{}, err
		}
		next, err := api.CreateTree([]core.Handle{entries[0], entries[1], entries[2], e1, e2})
		if err != nil {
			return core.Handle{}, err
		}
		return api.Application(next)
	})
}

// GetJob builds the top-level Strict Encode that looks key up in root.
func GetJob(st core.Store, root Root, key string) (core.Handle, error) {
	lim := core.DefaultLimits.Handle()
	fn := st.PutBlob(core.NativeFunctionBlob(GetProcName))
	keyH := st.PutBlob([]byte(key))
	tree, err := st.PutTree([]core.Handle{lim, fn, keyH, root.Keys, root.Node.AsRef()})
	if err != nil {
		return core.Handle{}, err
	}
	th, err := core.Application(tree)
	if err != nil {
		return core.Handle{}, err
	}
	return core.Strict(th)
}

// GenTitles generates n deterministic pseudo-titles (sorted, unique) with
// the ~22-byte average length of the paper's Wikipedia article titles.
func GenTitles(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("title-%012d-%s", i, suffix(i))
	}
	sort.Strings(out)
	return out
}

func suffix(i int) string {
	var b bytes.Buffer
	v := uint32(i)*2654435761 + 12345
	for j := 0; j < 4; j++ {
		b.WriteByte(byte('a' + (v % 26)))
		v /= 26
	}
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
