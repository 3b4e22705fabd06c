package lib

import "testing"

func TestHeal(t *testing.T) {
	new(Chaos).Heal()
}
