package main

import "reachfix"

func main() { reachfix.Run() }
