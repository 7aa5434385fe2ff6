package main

// pause runs a few PAUSE instructions, which tell the core that the
// thread is spinning so it yields execution resources to its sibling.
func pause()
