package bench

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"fixgo/internal/baselines/raysim"
	"fixgo/internal/bptree"
)

// Fig. 9's Ray arm: the B+-tree of internal/bptree in a raysim cluster.
// Ray representation (section 5.4): each node is a pair of objects — the
// key array, and a children list of ObjectRef IDs. An internal node's
// children entries are (keysRefID, childrenRefID) pairs for the subnodes;
// a leaf's entries are value ObjectRef IDs.

// rayRoot names the root node's two objects.
type rayRoot struct {
	Keys     raysim.Ref
	Children raysim.Ref
	Depth    int
}

func encodeRefIDs(ids []uint64) []byte {
	out := make([]byte, 0, len(ids)*8)
	for _, id := range ids {
		out = binary.LittleEndian.AppendUint64(out, id)
	}
	return out
}

func decodeRefIDs(data []byte) []uint64 {
	out := make([]uint64, len(data)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(data[i*8:])
	}
	return out
}

// buildRay mirrors bptree.Build into a raysim cluster's object store on node.
func buildRay(c *raysim.Cluster, node, arity int, keys []string, values [][]byte) (rayRoot, error) {
	if arity < 2 || len(keys) != len(values) || len(keys) == 0 || !sort.StringsAreSorted(keys) {
		return rayRoot{}, fmt.Errorf("bench: invalid ray build inputs")
	}
	type rnode struct {
		keys, children raysim.Ref
		min            string
	}
	var level []rnode
	for i := 0; i < len(keys); i += arity {
		end := min(i+arity, len(keys))
		keysRef := c.Put(node, bptree.EncodeKeys(true, keys[i:end]))
		ids := make([]uint64, 0, end-i)
		for _, v := range values[i:end] {
			ids = append(ids, c.Put(node, v).ID)
		}
		level = append(level, rnode{keys: keysRef, children: c.Put(node, encodeRefIDs(ids)), min: keys[i]})
	}
	depth := 1
	for len(level) > 1 {
		var next []rnode
		for i := 0; i < len(level); i += arity {
			end := min(i+arity, len(level))
			group := level[i:end]
			mins := make([]string, len(group))
			ids := make([]uint64, 0, 2*len(group))
			for j, ch := range group {
				mins[j] = ch.min
				ids = append(ids, ch.keys.ID, ch.children.ID)
			}
			next = append(next, rnode{
				keys:     c.Put(node, bptree.EncodeKeys(false, mins)),
				children: c.Put(node, encodeRefIDs(ids)),
				min:      group[0].min,
			})
		}
		level = next
		depth++
	}
	return rayRoot{Keys: level[0].keys, Children: level[0].children, Depth: depth}, nil
}

// registerRay installs the two traversal styles of Listings 2 and 3.
func registerRay(c *raysim.Cluster) {
	// Blocking style: one task per query; each level performs two
	// blocking gets (keys, children list) while holding its worker slot.
	c.Register("bptree/get_blocking", func(tc *raysim.TaskCtx, args []raysim.Arg) ([]byte, error) {
		ctx := context.Background()
		key := string(args[0].Data)
		keysRef, childrenRef := args[1].Ref, args[2].Ref
		for {
			kb, err := tc.Get(ctx, keysRef)
			if err != nil {
				return nil, err
			}
			children, err := tc.Get(ctx, childrenRef)
			if err != nil {
				return nil, err
			}
			isLeaf, keys, err := bptree.DecodeKeys(kb)
			if err != nil {
				return nil, err
			}
			ids := decodeRefIDs(children)
			if isLeaf {
				i := sort.SearchStrings(keys, key)
				if i >= len(keys) || keys[i] != key {
					return nil, fmt.Errorf("bptree: key %q not found", key)
				}
				return tc.Get(ctx, raysim.Ref{ID: ids[i]})
			}
			i, ok := bptree.ChildIndex(keys, key)
			if !ok {
				return nil, fmt.Errorf("bptree: key %q below minimum", key)
			}
			keysRef, childrenRef = raysim.Ref{ID: ids[2*i]}, raysim.Ref{ID: ids[2*i+1]}
		}
	})

	// Continuation-passing style: two fine-grained invocations per level
	// (one per ObjectRef needed, as in Table 2); no task ever blocks on
	// a get of an unavailable object — each need becomes a new task.
	c.Register("bptree/cps_keys", func(tc *raysim.TaskCtx, args []raysim.Arg) ([]byte, error) {
		// args: key, keysRef (pulled), childrenRef (id by value)
		ctx := context.Background()
		kb, err := tc.Get(ctx, args[1].Ref) // local: pulled before run
		if err != nil {
			return nil, err
		}
		next, err := tc.Submit(ctx, "bptree/cps_children",
			raysim.ByValue(args[0].Data), raysim.ByValue(kb), args[2])
		if err != nil {
			return nil, err
		}
		tc.Forward(next)
		return nil, nil
	})
	c.Register("bptree/cps_children", func(tc *raysim.TaskCtx, args []raysim.Arg) ([]byte, error) {
		// args: key, keysBlob (by value), childrenRef (pulled)
		ctx := context.Background()
		key := string(args[0].Data)
		isLeaf, keys, err := bptree.DecodeKeys(args[1].Data)
		if err != nil {
			return nil, err
		}
		children, err := tc.Get(ctx, args[2].Ref)
		if err != nil {
			return nil, err
		}
		ids := decodeRefIDs(children)
		if isLeaf {
			i := sort.SearchStrings(keys, key)
			if i >= len(keys) || keys[i] != key {
				return nil, fmt.Errorf("bptree: key %q not found", key)
			}
			next, err := tc.Submit(ctx, "bptree/cps_value", raysim.ByRef(raysim.Ref{ID: ids[i]}))
			if err != nil {
				return nil, err
			}
			tc.Forward(next)
			return nil, nil
		}
		i, ok := bptree.ChildIndex(keys, key)
		if !ok {
			return nil, fmt.Errorf("bptree: key %q below minimum", key)
		}
		next, err := tc.Submit(ctx, "bptree/cps_keys",
			raysim.ByValue(args[0].Data),
			raysim.ByRef(raysim.Ref{ID: ids[2*i]}),
			raysim.ByRef(raysim.Ref{ID: ids[2*i+1]}))
		if err != nil {
			return nil, err
		}
		tc.Forward(next)
		return nil, nil
	})
	c.Register("bptree/cps_value", func(tc *raysim.TaskCtx, args []raysim.Arg) ([]byte, error) {
		return tc.Get(context.Background(), args[0].Ref)
	})
}

// getRayBlocking runs a blocking-style lookup from the driver.
func getRayBlocking(ctx context.Context, c *raysim.Cluster, root rayRoot, key string) ([]byte, error) {
	ref, err := c.Submit(ctx, "bptree/get_blocking",
		raysim.ByValue([]byte(key)), raysim.ByRef(root.Keys), raysim.ByRef(root.Children))
	if err != nil {
		return nil, err
	}
	return c.Get(ctx, ref)
}

// getRayCPS runs a continuation-passing-style lookup from the driver.
func getRayCPS(ctx context.Context, c *raysim.Cluster, root rayRoot, key string) ([]byte, error) {
	ref, err := c.Submit(ctx, "bptree/cps_keys",
		raysim.ByValue([]byte(key)), raysim.ByRef(root.Keys), raysim.ByRef(root.Children))
	if err != nil {
		return nil, err
	}
	return c.Get(ctx, ref)
}
