from .entry import console_main

console_main()
