// Package radshield is a from-scratch Go reproduction of "Shields Up!
// Software Radiation Protection for Commodity Hardware in Space"
// (ASPLOS 2026): software-only protection of commodity spacecraft
// computers against single-event latchups (ILD) and single-event upsets
// (EMR), together with the simulated testbed, fault injectors, paper
// workloads, and experiment harnesses that regenerate every table and
// figure of the paper's evaluation.
//
// The root package carries the end-to-end mission integration tests;
// the implementation lives under internal/, the command-line tools
// under cmd/ (radbench regenerates every table and figure) and the
// benchmark under bench/ — see README.md for the map and DESIGN.md for
// the design document.
package radshield
