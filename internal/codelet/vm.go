package codelet

import (
	"encoding/binary"
	"fmt"
	"sync"

	"fixgo/internal/core"
)

// Program is validated FixVM bytecode ready for execution. Load performs
// the validation once (the analog of the in-memory ELF linker of section
// 4.1); a Program may then be applied many times concurrently, each run
// with its own memory, registers, and handle table.
type Program struct {
	code    []byte
	memSize int
	// valid marks instruction-boundary offsets; all jump/call targets
	// were checked against it at load time.
	valid map[int]bool
}

// Load validates bytecode (as produced by Assemble, without the MagicVM
// prefix) and returns an executable Program.
func Load(bytecode []byte) (*Program, error) {
	if len(bytecode) < headerLen {
		return nil, fmt.Errorf("codelet: bytecode shorter than header")
	}
	if bytecode[0] != bytecodeVersion {
		return nil, fmt.Errorf("codelet: unsupported bytecode version %d", bytecode[0])
	}
	memSize := int(binary.LittleEndian.Uint32(bytecode[1:5]))
	if memSize > MaxMemory {
		return nil, fmt.Errorf("codelet: memory size %d exceeds max %d", memSize, MaxMemory)
	}
	code := bytecode[headerLen:]
	if len(code) == 0 {
		return nil, fmt.Errorf("codelet: empty code section")
	}

	// First pass: mark instruction boundaries, check opcodes/operands.
	valid := make(map[int]bool)
	type pending struct{ at, target int }
	var targets []pending
	for pc := 0; pc < len(code); {
		valid[pc] = true
		op := code[pc]
		if op >= opCount {
			return nil, fmt.Errorf("codelet: invalid opcode %d at pc=%d", op, pc)
		}
		spec := specs[op]
		end := pc + 1 + operandLen(spec.ops)
		if end > len(code) {
			return nil, fmt.Errorf("codelet: truncated %s at pc=%d", spec.name, pc)
		}
		cursor := pc + 1
		for _, k := range spec.ops {
			switch k {
			case 'r':
				if code[cursor] >= numRegisters {
					return nil, fmt.Errorf("codelet: bad register r%d at pc=%d", code[cursor], pc)
				}
				cursor++
			case 'h':
				if code[cursor] >= hostCount {
					return nil, fmt.Errorf("codelet: bad host fn %d at pc=%d", code[cursor], pc)
				}
				cursor++
			case 't':
				targets = append(targets, pending{pc, int(binary.LittleEndian.Uint32(code[cursor:]))})
				cursor += 4
			case 'i':
				cursor += 4
			case 'I':
				cursor += 8
			}
		}
		pc = end
	}
	for _, t := range targets {
		if !valid[t.target] {
			return nil, fmt.Errorf("codelet: jump target %d at pc=%d is not an instruction boundary", t.target, t.at)
		}
	}
	return &Program{code: code, memSize: memSize, valid: valid}, nil
}

// Apply executes the program's _fix_apply entrypoint against the Fixpoint
// API with the given input handle in slot 0, using the DefaultGas budget.
func (p *Program) Apply(api core.API, input core.Handle) (core.Handle, error) {
	return p.Run(api, input, DefaultGas)
}

// Run is Apply with an explicit gas budget (normally taken from the
// invocation's resource limits).
func (p *Program) Run(api core.API, input core.Handle, gas uint64) (core.Handle, error) {
	if gas == 0 {
		gas = DefaultGas
	}
	m := getMachine()
	m.reset(p, api, input, gas)
	h, err := m.run()
	putMachine(m)
	return h, err
}

var _ core.Procedure = (*Program)(nil)

// Bounds of the machine pool: how many idle machines it keeps, and the
// largest memory plus handle table, in bytes, it keeps for reuse.
const (
	maxIdleMachines = 64
	maxPooledBytes  = 256 << 10
)

// idle holds machines between runs, last-in first-out like runtime.Go's
// parked workers. A machine's memory, handle table and call stack are
// reused, and reset makes a reused machine indistinguishable from a fresh
// one. No machine is reachable from the API it calls: host calls pass
// values, or views of memory the callee copies and does not keep. A
// sync.Pool would do, except that it drops Puts at random under the race
// detector, where the allocation pins run too.
var idle struct {
	sync.Mutex
	machines []*machine
}

func getMachine() *machine {
	idle.Lock()
	var m *machine
	if k := len(idle.machines); k > 0 {
		m = idle.machines[k-1]
		idle.machines = idle.machines[:k-1]
	}
	idle.Unlock()
	if m == nil {
		m = new(machine)
	}
	return m
}

func putMachine(m *machine) {
	if cap(m.mem)+cap(m.slots)*core.HandleSize > maxPooledBytes {
		return
	}
	m.prog, m.api = nil, nil // an idle machine pins no program or API
	idle.Lock()
	if len(idle.machines) < maxIdleMachines {
		idle.machines = append(idle.machines, m)
	}
	idle.Unlock()
}

// machine is a single execution of a Program.
type machine struct {
	prog  *Program
	api   core.API
	mem   []byte
	reg   [numRegisters]uint64
	slots []core.Handle
	stack []int
	gas   uint64
	pc    int
}

// reset readies m to run p from its entrypoint: zeroed memory of p's
// size, zeroed registers, input alone in the handle table, an empty call
// stack.
func (m *machine) reset(p *Program, api core.API, input core.Handle, gas uint64) {
	m.prog, m.api, m.gas, m.pc = p, api, gas, 0
	if cap(m.mem) < p.memSize {
		m.mem = make([]byte, p.memSize)
	} else {
		m.mem = m.mem[:p.memSize]
		clear(m.mem)
	}
	m.reg = [numRegisters]uint64{}
	m.slots = append(m.slots[:0], input)
	m.stack = m.stack[:0]
}

func (m *machine) trap(format string, args ...any) error {
	return &TrapError{PC: m.pc, Reason: fmt.Sprintf(format, args...)}
}

func (m *machine) slot(idx uint64) (core.Handle, error) {
	if idx >= uint64(len(m.slots)) {
		return core.Handle{}, m.trap("handle slot %d out of range (%d slots)", idx, len(m.slots))
	}
	return m.slots[idx], nil
}

func (m *machine) pushSlot(h core.Handle) (uint64, error) {
	if len(m.slots) >= MaxHandleSlots {
		return 0, m.trap("handle table full")
	}
	m.slots = append(m.slots, h)
	return uint64(len(m.slots) - 1), nil
}

func (m *machine) memRange(addr, n uint64) ([]byte, error) {
	if n > uint64(len(m.mem)) || addr > uint64(len(m.mem))-n {
		return nil, m.trap("memory access [%d,%d) out of bounds (size %d)", addr, addr+n, len(m.mem))
	}
	return m.mem[addr : addr+n], nil
}

func (m *machine) run() (core.Handle, error) {
	code := m.prog.code
	for {
		if m.pc >= len(code) {
			return core.Handle{}, m.trap("fell off end of code")
		}
		if m.gas == 0 {
			return core.Handle{}, m.trap("out of gas")
		}
		m.gas--
		op := code[m.pc]
		c := m.pc + 1
		switch op {
		case opNop:
			m.pc = c
		case opTrap:
			return core.Handle{}, m.trap("explicit trap")
		case opRet:
			h, err := m.slot(m.reg[code[c]])
			if err != nil {
				return core.Handle{}, err
			}
			return h, nil
		case opLi:
			m.reg[code[c]] = binary.LittleEndian.Uint64(code[c+1:])
			m.pc = c + 9
		case opMov:
			m.reg[code[c]] = m.reg[code[c+1]]
			m.pc = c + 2
		case opAdd, opSub, opMul, opDivu, opRemu, opAnd, opOr, opXor, opShl, opShr, opSltu, opSlts:
			a, b := m.reg[code[c+1]], m.reg[code[c+2]]
			var v uint64
			switch op {
			case opAdd:
				v = a + b
			case opSub:
				v = a - b
			case opMul:
				v = a * b
			case opDivu:
				if b == 0 {
					return core.Handle{}, m.trap("division by zero")
				}
				v = a / b
			case opRemu:
				if b == 0 {
					return core.Handle{}, m.trap("division by zero")
				}
				v = a % b
			case opAnd:
				v = a & b
			case opOr:
				v = a | b
			case opXor:
				v = a ^ b
			case opShl:
				v = a << (b & 63)
			case opShr:
				v = a >> (b & 63)
			case opSltu:
				if a < b {
					v = 1
				}
			case opSlts:
				if int64(a) < int64(b) {
					v = 1
				}
			}
			m.reg[code[c]] = v
			m.pc = c + 3
		case opAddi:
			imm := int32(binary.LittleEndian.Uint32(code[c+2:]))
			m.reg[code[c]] = m.reg[code[c+1]] + uint64(int64(imm))
			m.pc = c + 6
		case opLd8, opLd16, opLd32, opLd64:
			imm := int32(binary.LittleEndian.Uint32(code[c+2:]))
			addr := m.reg[code[c+1]] + uint64(int64(imm))
			width := uint64(1) << (op - opLd8)
			buf, err := m.memRange(addr, width)
			if err != nil {
				return core.Handle{}, err
			}
			var v uint64
			switch op {
			case opLd8:
				v = uint64(buf[0])
			case opLd16:
				v = uint64(binary.LittleEndian.Uint16(buf))
			case opLd32:
				v = uint64(binary.LittleEndian.Uint32(buf))
			case opLd64:
				v = binary.LittleEndian.Uint64(buf)
			}
			m.reg[code[c]] = v
			m.pc = c + 6
		case opSt8, opSt16, opSt32, opSt64:
			imm := int32(binary.LittleEndian.Uint32(code[c+1:]))
			addr := m.reg[code[c]] + uint64(int64(imm))
			src := m.reg[code[c+5]]
			width := uint64(1) << (op - opSt8)
			buf, err := m.memRange(addr, width)
			if err != nil {
				return core.Handle{}, err
			}
			switch op {
			case opSt8:
				buf[0] = byte(src)
			case opSt16:
				binary.LittleEndian.PutUint16(buf, uint16(src))
			case opSt32:
				binary.LittleEndian.PutUint32(buf, uint32(src))
			case opSt64:
				binary.LittleEndian.PutUint64(buf, src)
			}
			m.pc = c + 6
		case opJmp:
			m.pc = int(binary.LittleEndian.Uint32(code[c:]))
		case opJz, opJnz:
			t := int(binary.LittleEndian.Uint32(code[c+1:]))
			taken := m.reg[code[c]] == 0
			if op == opJnz {
				taken = !taken
			}
			if taken {
				m.pc = t
			} else {
				m.pc = c + 5
			}
		case opBeq, opBne, opBltu, opBgeu:
			a, b := m.reg[code[c]], m.reg[code[c+1]]
			t := int(binary.LittleEndian.Uint32(code[c+2:]))
			var taken bool
			switch op {
			case opBeq:
				taken = a == b
			case opBne:
				taken = a != b
			case opBltu:
				taken = a < b
			case opBgeu:
				taken = a >= b
			}
			if taken {
				m.pc = t
			} else {
				m.pc = c + 6
			}
		case opCall:
			if len(m.stack) >= MaxCallDepth {
				return core.Handle{}, m.trap("call stack overflow")
			}
			m.stack = append(m.stack, c+4)
			m.pc = int(binary.LittleEndian.Uint32(code[c:]))
		case opRetn:
			if len(m.stack) == 0 {
				return core.Handle{}, m.trap("retn with empty call stack")
			}
			m.pc = m.stack[len(m.stack)-1]
			m.stack = m.stack[:len(m.stack)-1]
		case opHost:
			if err := m.host(code[c]); err != nil {
				return core.Handle{}, err
			}
			m.pc = c + 1
		default:
			return core.Handle{}, m.trap("invalid opcode %d", op)
		}
	}
}

// hostGasCost is the flat surcharge per host call; attach/create also pay
// one unit per 64 bytes moved.
const hostGasCost = 8

func (m *machine) host(fn byte) error {
	if m.gas < hostGasCost {
		m.gas = 0
		return m.trap("out of gas")
	}
	m.gas -= hostGasCost
	switch fn {
	case hostSizeOf, hostKindOf, hostRefKindOf:
		h, err := m.slot(m.reg[1])
		if err != nil {
			return err
		}
		switch fn {
		case hostSizeOf:
			m.reg[0] = m.api.SizeOf(h)
		case hostKindOf:
			m.reg[0] = uint64(m.api.KindOf(h))
		case hostRefKindOf:
			m.reg[0] = uint64(m.api.RefKindOf(h))
		}
		return nil
	case hostAttachBlob:
		h, err := m.slot(m.reg[1])
		if err != nil {
			return err
		}
		data, err := m.api.AttachBlob(h)
		if err != nil {
			return m.trap("attach_blob: %v", err)
		}
		dst, err := m.memRange(m.reg[2], uint64(len(data)))
		if err != nil {
			return err
		}
		m.chargeBytes(len(data))
		copy(dst, data)
		m.reg[0] = uint64(len(data))
		return nil
	case hostTreeChild:
		h, err := m.slot(m.reg[1])
		if err != nil {
			return err
		}
		entries, err := m.api.AttachTree(h)
		if err != nil {
			return m.trap("tree_child: %v", err)
		}
		if m.reg[2] >= uint64(len(entries)) {
			return m.trap("tree_child: index %d out of range (%d entries)", m.reg[2], len(entries))
		}
		s, err := m.pushSlot(entries[m.reg[2]])
		if err != nil {
			return err
		}
		m.reg[0] = s
		return nil
	case hostCreateBlob:
		data, err := m.memRange(m.reg[1], m.reg[2])
		if err != nil {
			return err
		}
		m.chargeBytes(len(data))
		s, err := m.pushSlot(m.api.CreateBlob(data))
		if err != nil {
			return err
		}
		m.reg[0] = s
		return nil
	case hostCreateTree:
		count := m.reg[2]
		if count > uint64(len(m.mem))/4 { // and count*4 cannot wrap
			return m.trap("create_tree: %d entries exceed memory (size %d)", count, len(m.mem))
		}
		raw, err := m.memRange(m.reg[1], count*4)
		if err != nil {
			return err
		}
		entries := make([]core.Handle, count)
		for i := range entries {
			idx := uint64(binary.LittleEndian.Uint32(raw[i*4:]))
			h, err := m.slot(idx)
			if err != nil {
				return err
			}
			entries[i] = h
		}
		t, err := m.api.CreateTree(entries)
		if err != nil {
			return m.trap("create_tree: %v", err)
		}
		s, err := m.pushSlot(t)
		if err != nil {
			return err
		}
		m.reg[0] = s
		return nil
	case hostApplication, hostIdentification, hostStrict, hostShallow:
		h, err := m.slot(m.reg[1])
		if err != nil {
			return err
		}
		var out core.Handle
		var aerr error
		switch fn {
		case hostApplication:
			out, aerr = m.api.Application(h)
		case hostIdentification:
			out, aerr = m.api.Identification(h)
		case hostStrict:
			out, aerr = m.api.Strict(h)
		case hostShallow:
			out, aerr = m.api.Shallow(h)
		}
		if aerr != nil {
			return m.trap("host: %v", aerr)
		}
		s, err := m.pushSlot(out)
		if err != nil {
			return err
		}
		m.reg[0] = s
		return nil
	case hostSelection:
		h, err := m.slot(m.reg[1])
		if err != nil {
			return err
		}
		out, aerr := m.api.Selection(h, m.reg[2])
		if aerr != nil {
			return m.trap("selection: %v", aerr)
		}
		s, err := m.pushSlot(out)
		if err != nil {
			return err
		}
		m.reg[0] = s
		return nil
	case hostSelectionRange:
		h, err := m.slot(m.reg[1])
		if err != nil {
			return err
		}
		out, aerr := m.api.SelectionRange(h, m.reg[2], m.reg[3])
		if aerr != nil {
			return m.trap("selection_range: %v", aerr)
		}
		s, err := m.pushSlot(out)
		if err != nil {
			return err
		}
		m.reg[0] = s
		return nil
	case hostLitU64:
		s, err := m.pushSlot(core.LiteralU64(m.reg[1]))
		if err != nil {
			return err
		}
		m.reg[0] = s
		return nil
	case hostReadU64:
		h, err := m.slot(m.reg[1])
		if err != nil {
			return err
		}
		data, aerr := m.api.AttachBlob(h)
		if aerr != nil {
			return m.trap("read_u64: %v", aerr)
		}
		v, aerr := core.DecodeU64(data)
		if aerr != nil {
			return m.trap("read_u64: %v", aerr)
		}
		m.reg[0] = v
		return nil
	case hostEqual:
		a, err := m.slot(m.reg[1])
		if err != nil {
			return err
		}
		b, err := m.slot(m.reg[2])
		if err != nil {
			return err
		}
		if a == b {
			m.reg[0] = 1
		} else {
			m.reg[0] = 0
		}
		return nil
	default:
		return m.trap("invalid host fn %d", fn)
	}
}

func (m *machine) chargeBytes(n int) {
	cost := uint64(n / 64)
	if cost >= m.gas {
		m.gas = 1 // charge but let the current op complete; next step traps
	} else {
		m.gas -= cost
	}
}
